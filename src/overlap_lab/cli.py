"""Command-line harness: reproducible symbolic expansions, theorem checks,
and quenched estimates.

Exit codes: 0 success (and identity/theorem holds), 1 identity or theorem
violation beyond tolerance, 2 usage, parse, or budget errors.  Option
precedence: command-line flags override the JSON config file, whose values
are converted and checked like the flags they name, which overrides the
defaults declared on the parser.  JSON output carries a ``payload`` section
whose sha256 is stable across reruns and depends on what was computed
alone: inputs are echoed in one normal form, and inputs a computation
ignores are not echoed.

Each ``cmd_*`` function parses its inputs, computes, and returns its exit
code, JSON report and text lines.  :func:`main` alone builds the envelope
of every report: it lifts Python's limit on the digits of an integer
written as text around the command, puts the command's wall time and the
work it counted under ``timings``, and writes the output once.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import sys
import time
from typing import TYPE_CHECKING

from . import exprio
from .graphs import GraphPolynomial, work_counts
from .operators import (
    DELTA,
    WICK,
    BudgetError,
    apply_word,
    theorem_verify,
)

if TYPE_CHECKING:  # the numerical commands import the lab, so the symbolic ones skip numpy
    from . import lab

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

_WORD_TOKENS = {"d": (DELTA,), "C": (WICK,), "D": (WICK, DELTA, DELTA)}


def lattice(text: str) -> tuple[int, ...]:
    """EA lattice sides from text like ``4`` or ``3x3``."""
    return tuple(int(side) for side in text.lower().split("x"))


def lambda_grid(text: str) -> tuple[float, ...]:
    """Deformation grid from comma-separated values; all-positive magnitudes
    are mirrored about 0."""
    parts = [float(x) for x in text.split(",") if x.strip()]
    if all(x > 0 for x in parts):
        parts = [s * x for x in parts for s in (1.0, -1.0)]
    return tuple(parts)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlap",
        description="Overlap-graph algebra and quenched-measure laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    def add_model(p):
        p.add_argument("--model", choices=["sk", "ea"], default="sk")
        p.add_argument("--N", type=int, default=3, help="SK spin count")
        p.add_argument("--lattice", type=lattice, default="4",
                       help="EA lattice sides, e.g. 4 or 3x3")
        p.add_argument("--beta", type=float, default=0.5)
        p.add_argument("--samples", type=int, default=20000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--method", choices=["mc", "quadrature"], default="mc")
        p.add_argument("--nodes", type=int, default=64,
                       help="quadrature nodes per dimension")

    p = sub.add_parser("expand", help="apply an operator word to a monomial")
    p.add_argument("--graph")
    p.add_argument("--word", default="",
                   help="tokens: d (derivation), C (contraction), D (C d d)")
    add_common(p)

    p = sub.add_parser("verify", help="check the contraction-power identity")
    p.add_argument("--graph")
    p.add_argument("--n", type=int, default=1)
    add_common(p)

    p = sub.add_parser("counts", help="term counts for the identity's two sides")
    p.add_argument("--graph")
    p.add_argument("--n", type=int, default=1)
    add_common(p)

    p = sub.add_parser("estimate", help="quenched/deformed expectation of a polynomial")
    p.add_argument("--graph")
    p.add_argument("--lam", type=float, default=0.0, help="deformation strength")
    p.add_argument("--lambda-grid", dest="lambda_grid", type=lambda_grid,
                   help="comma-separated magnitudes for --curve-out "
                        "(default: the DeformationConfig grid)")
    p.add_argument("--curve-out", dest="curve_out",
                   help="write a CSV of estimates across the lambda grid")
    add_model(p)
    add_common(p)

    p = sub.add_parser("identity", help="derivative vs stability-moment identity")
    p.add_argument("--graph")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="absolute tolerance (quadrature rows)")
    p.add_argument("--lemma-lambda", dest="lemma_lambda", type=float, default=0.2)
    p.add_argument("--lambda-grid", dest="lambda_grid", type=lambda_grid,
                   help="comma-separated symmetric grid magnitudes "
                        "(default: the DeformationConfig grid)")
    add_model(p)
    add_common(p)

    p = sub.add_parser("baseline", help="pairing baselines for the Gaussian fields")
    add_model(p)
    add_common(p)

    return parser


#: Separators that join a config file's JSON list into the flag's text.
_LIST_SEPARATORS = {"lattice": "x", "lambda_grid": ","}


def _config_argv(path: str, opts: dict) -> list[str]:
    """The settings of a config file as ``--option=value`` tokens, so each
    value goes through the conversion and choices check of its flag."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    argv = []
    for key, val in cfg.items():
        dest = key.replace("-", "_")
        if dest not in opts or dest in ("command", "config"):
            raise ValueError(f"unknown config key {key!r} for {opts['command']}")
        flag = "--" + dest.replace("_", "-")
        if val is None:  # null leaves the default
            continue
        if isinstance(opts[dest], bool):  # an on/off flag
            if not isinstance(val, bool):
                raise ValueError(f"config key {key!r} must be true or false")
            argv += [flag] if val else []
            continue
        items = val if isinstance(val, list) and dest in _LIST_SEPARATORS else [val]
        if not all(isinstance(x, (str, int, float)) and not isinstance(x, bool)
                   for x in items):
            raise ValueError(f"config key {key!r} cannot take {json.dumps(val)}")
        text = _LIST_SEPARATORS.get(dest, "").join(
            x if isinstance(x, str) else repr(x) for x in items)
        argv.append(f"{flag}={text}")
    return argv


def _options(argv: list[str]) -> dict:
    """Parsed options: flags override the config file, which overrides the
    defaults declared on the parser."""
    parser = _build_parser()
    opts = vars(parser.parse_args(argv))
    if opts["config"]:
        # The command is the first token; flags come after the config's.
        argv = [argv[0], *_config_argv(opts["config"], opts), *argv[1:]]
        opts = vars(parser.parse_args(argv))
    if "graph" in opts and opts["graph"] is None:
        raise ValueError("the following arguments are required: --graph")
    return opts


def _parse_word(text: str) -> list[str]:
    word: list[str] = []
    for token in text.split():
        if token not in _WORD_TOKENS:
            raise ValueError(
                f"unknown operator token {token!r} (expected d, C, or D)"
            )
        word.extend(_WORD_TOKENS[token])
    return word


def _build_model(opts: dict) -> lab.ModelInstance:
    from . import lab

    if opts["model"] == "sk":
        return lab.sk_model(opts["N"], opts["beta"])
    return lab.ea_model(opts["lattice"], opts["beta"])


def _payload_sha(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _emit(opts: dict, text_lines: list[str], doc: dict) -> None:
    if opts["json"]:
        doc = dict(doc)
        doc["payload_sha256"] = _payload_sha(doc["payload"])
        output = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        output = "\n".join(text_lines) + "\n"
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)


@contextlib.contextmanager
def _exact_digits():
    """Let integers of any length be written as text inside the block.
    Python refuses by default to convert one of more than 4,300 digits,
    which an exact coefficient or term count can pass; the work budget
    bounds them instead.  The expression parser keeps Python's bound on
    the literals it reads, lifted or not."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _work_counts() -> dict:
    """Running totals of work (see ``graphs.work_counts``) and, under
    ``gc_collected``, of the objects the cyclic garbage collector freed."""
    collected = sum(gen["collected"] for gen in gc.get_stats())
    return {**work_counts(), "gc_collected": collected}


def _work_since(before: dict) -> dict:
    """Work counters accrued since ``before``, a :func:`_work_counts`
    snapshot."""
    return {key: n - before[key] for key, n in _work_counts().items()}


#: What a command returns: exit code, JSON report and text lines.
Result = tuple[int, dict, list[str]]


def cmd_expand(opts: dict) -> Result:
    word = _parse_word(opts["word"])
    start = GraphPolynomial.monomial(exprio.parse_monomial(opts["graph"]))
    text = exprio.format_polynomial(apply_word(word, start))
    payload = {"input": exprio.format_polynomial(start), "result_polynomial": text,
               "word": " ".join("C" if op == WICK else "d" for op in word)}
    return EXIT_OK, {"type": "expansion", "payload": payload, "timings": {}}, [text]


def cmd_verify(opts: dict) -> Result:
    report = theorem_verify(exprio.parse_monomial(opts["graph"]), opts["n"])
    doc = exprio.as_jsonable(report)
    p = doc["payload"]
    lines = [
        f"graph: {p['graph']}",
        f"n: {p['n']}",
        f"equal: {str(p['equal']).lower()}",
        f"raw terms: lhs={p['raw_lhs_terms']} rhs={p['raw_rhs_terms']}",
        f"canonical terms: lhs={p['canonical_lhs_terms']} rhs={p['canonical_rhs_terms']}",
        f"lhs: {p['lhs']}",
        f"rhs: {p['rhs']}",
    ]
    return EXIT_OK if report.equal else EXIT_VIOLATION, doc, lines


def cmd_counts(opts: dict) -> Result:
    report = theorem_verify(exprio.parse_monomial(opts["graph"]), opts["n"])
    doc = exprio.as_jsonable(report, omit=("lhs", "rhs", "equal"))
    doc["type"] = "term_counts"
    p = doc["payload"]
    line = (f"raw_lhs={p['raw_lhs_terms']} raw_rhs={p['raw_rhs_terms']} "
            f"canonical_lhs={p['canonical_lhs_terms']} "
            f"canonical_rhs={p['canonical_rhs_terms']}")
    return EXIT_OK, doc, [line]


def _lambda_grid(opts: dict) -> tuple[float, ...]:
    """The --lambda-grid value, or the grid DeformationConfig declares when
    it is unset."""
    from . import lab

    grid = opts["lambda_grid"]
    return lab.DeformationConfig().lambda_grid if grid is None else grid


def cmd_estimate(opts: dict) -> Result:
    from . import lab

    model = _build_model(opts)
    poly = exprio.parse_polynomial(opts["graph"])

    def estimate(lam):
        if opts["method"] == "quadrature":
            return lab.quadrature_expectation(model, poly, lam, opts["nodes"])
        return lab.deformed_expectation(model, poly, lam, opts["samples"], opts["seed"])

    est = estimate(opts["lam"])
    doc = exprio.as_jsonable(est)
    # the graph echoed canonically, and -0.0 as 0.0
    doc["payload"].update({"model": exprio._model_dict(model), "lambda": opts["lam"] + 0.0,
                           "graph": exprio.format_polynomial(poly)})
    line = (f"mean={est.mean!r} stderr={est.stderr!r} samples={est.samples} "
            f"seed={est.seed} method={est.method}")
    lines = [line if est.truncation is None else f"{line} truncation={est.truncation!r}"]
    if opts["curve_out"]:
        grid = sorted(set(_lambda_grid(opts)) | {0.0})
        with open(opts["curve_out"], "w", encoding="utf-8") as fh:
            fh.write("lambda,mean,stderr\n")
            for lam in grid:
                row = estimate(lam)
                fh.write(f"{lam!r},{row.mean!r},{row.stderr!r}\n")
        lines.append(f"curve written to {opts['curve_out']}")
    return EXIT_OK, doc, lines


def _check(report: lab.IdentityReport) -> Result:
    """Exit code, JSON report and text lines of an identity or baseline check."""
    lines = [f"check: {report.label}  method={report.method} "
             f"samples={report.samples} seed={report.seed}"]
    if report.model is not None:
        lines.append(f"model: {report.model.describe()}")
    for row in report.rows:
        lines.append(
            f"  {row.label}: lhs={row.lhs:.8g} rhs={row.rhs:.8g} "
            f"diff={row.diff:.3g} (+/- {row.diff_stderr:.3g}, "
            f"tol {row.tolerance:.3g}) -> {'ok' if row.passed else 'VIOLATION'}"
        )
    lines.append(f"passed: {str(report.passed).lower()}")
    return EXIT_OK if report.passed else EXIT_VIOLATION, exprio.as_jsonable(report), lines


def cmd_identity(opts: dict) -> Result:
    from . import lab

    model = _build_model(opts)
    graph = exprio.parse_monomial(opts["graph"])
    config = lab.DeformationConfig(lambda_grid=_lambda_grid(opts))
    return _check(lab.identity_check(
        model, graph, opts["n"], opts["samples"], opts["seed"],
        config=config, method=opts["method"],
        tol=opts["tol"], lemma_lambda=opts["lemma_lambda"], n_nodes=opts["nodes"],
    ))


def cmd_baseline(opts: dict) -> Result:
    from . import lab

    return _check(lab.wick_baseline_check(
        _build_model(opts), opts["samples"], opts["seed"],
        method=opts["method"], n_nodes=opts["nodes"],
    ))


_COMMANDS = {
    "expand": cmd_expand,
    "verify": cmd_verify,
    "counts": cmd_counts,
    "estimate": cmd_estimate,
    "identity": cmd_identity,
    "baseline": cmd_baseline,
}


def main(argv=None) -> int:
    try:
        opts = _options(sys.argv[1:] if argv is None else list(argv))
        before = _work_counts()
        t0 = time.perf_counter()
        with _exact_digits():
            code, doc, lines = _COMMANDS[opts["command"]](opts)
            doc["timings"].update(wall_s=time.perf_counter() - t0, **_work_since(before))
            _emit(opts, lines, doc)
        return code
    except SystemExit as exc:  # argparse has printed its message
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
