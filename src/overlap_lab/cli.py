"""Command-line harness: reproducible symbolic expansions, theorem checks,
and quenched estimates.

Exit codes: 0 success (and identity/theorem holds), 1 identity or theorem
violation beyond tolerance, 2 usage, parse, or budget errors.  Option
precedence: command-line flags override the JSON config file, which
overrides built-in defaults.  JSON output carries a ``payload`` section
whose sha256 is stable across reruns; wall times live under ``timings``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import exprio, lab
from .graphs import GraphPolynomial, work_counts
from .operators import (
    DELTA,
    WICK,
    BudgetError,
    apply_word,
    theorem_verify,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

_WORD_TOKENS = {"d": (DELTA,), "C": (WICK,), "D": (WICK, DELTA, DELTA)}

_DEFAULTS = {
    "expand": {"word": "", "json": False, "out": None},
    "verify": {"n": 1, "json": False, "out": None},
    "counts": {"n": 1, "json": False, "out": None},
    "estimate": {
        "model": "sk", "N": 3, "lattice": "4", "beta": 0.5,
        "lam": 0.0, "samples": 20000, "seed": 0,
        "method": "mc", "nodes": 64, "json": False, "out": None,
        "lambda_grid": None, "curve_out": None,
    },
    "identity": {
        "model": "sk", "N": 3, "lattice": "4", "beta": 0.5,
        "n": 1, "samples": 20000, "seed": 0,
        "method": "mc", "nodes": 64, "tol": 1e-6, "lemma_lambda": 0.2,
        "lambda_grid": None, "json": False, "out": None,
    },
    "baseline": {
        "model": "sk", "N": 3, "lattice": "4", "beta": 0.5,
        "samples": 20000, "seed": 0,
        "method": "mc", "nodes": 64, "json": False, "out": None,
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlap",
        description="Overlap-graph algebra and quenched-measure laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--json", action="store_const", const=True, default=None,
                       help="emit a JSON report instead of text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    def add_model(p):
        p.add_argument("--model", choices=["sk", "ea"])
        p.add_argument("--N", type=int, help="SK spin count")
        p.add_argument("--lattice", help="EA lattice sides, e.g. 4 or 3x3")
        p.add_argument("--beta", type=float)
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--method", choices=["mc", "quadrature"])
        p.add_argument("--nodes", type=int, help="quadrature nodes per dimension")

    p = sub.add_parser("expand", help="apply an operator word to a monomial")
    p.add_argument("--graph", required=True)
    p.add_argument("--word", help="tokens: d (derivation), C (contraction), D (C d d)")
    add_common(p)

    p = sub.add_parser("verify", help="check the contraction-power identity")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int)
    add_common(p)

    p = sub.add_parser("counts", help="term counts for the identity's two sides")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int)
    add_common(p)

    p = sub.add_parser("estimate", help="quenched/deformed expectation of a polynomial")
    p.add_argument("--graph", required=True)
    p.add_argument("--lam", type=float, help="deformation strength")
    p.add_argument("--lambda-grid", dest="lambda_grid",
                   help="comma-separated magnitudes for --curve-out")
    p.add_argument("--curve-out", dest="curve_out",
                   help="write a CSV of estimates across the lambda grid")
    add_model(p)
    add_common(p)

    p = sub.add_parser("identity", help="derivative vs stability-moment identity")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--tol", type=float, help="absolute tolerance (quadrature rows)")
    p.add_argument("--lemma-lambda", dest="lemma_lambda", type=float)
    p.add_argument("--lambda-grid", dest="lambda_grid",
                   help="comma-separated symmetric grid magnitudes")
    add_model(p)
    add_common(p)

    p = sub.add_parser("baseline", help="pairing baselines for the Gaussian fields")
    add_model(p)
    add_common(p)

    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    ns = vars(args)
    merged = dict(ns)
    if ns.get("config"):
        with open(ns["config"], "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in cfg.items():
            key = key.replace("-", "_")
            if key not in ns or key in ("command", "config"):
                raise ValueError(f"unknown config key {key!r} for {ns['command']}")
            if merged.get(key) is None:
                merged[key] = val
    for key, val in _DEFAULTS[ns["command"]].items():
        if merged.get(key) is None:
            merged[key] = val
    return merged


def _parse_word(text: str) -> list[str]:
    word: list[str] = []
    for token in text.split():
        if token not in _WORD_TOKENS:
            raise ValueError(
                f"unknown operator token {token!r} (expected d, C, or D)"
            )
        word.extend(_WORD_TOKENS[token])
    return word


def _parse_lattice(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(x) for x in text)
    return tuple(int(part) for part in str(text).lower().split("x"))


def _build_model(opts: dict) -> lab.ModelInstance:
    if opts["model"] == "sk":
        return lab.sk_model(opts["N"], opts["beta"])
    return lab.ea_model(_parse_lattice(opts["lattice"]), opts["beta"])


def _parse_lambda_grid(value) -> tuple[float, ...]:
    if value is None:
        return lab.DeformationConfig().lambda_grid
    if isinstance(value, str):
        parts = [float(x) for x in value.split(",") if x.strip()]
    else:
        parts = [float(x) for x in value]
    if all(x > 0 for x in parts):
        parts = [s * x for x in parts for s in (1.0, -1.0)]
    return tuple(parts)


def _payload_sha(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _emit(opts: dict, text_lines: list[str], doc: dict | None) -> None:
    if opts["json"]:
        assert doc is not None
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


def _work_since(before: dict) -> dict:
    """Work counters (see ``graphs.work_counts``) accrued since ``before``."""
    return {key: n - before[key] for key, n in work_counts().items()}


def cmd_expand(opts: dict) -> int:
    word = _parse_word(opts["word"] or "")
    graph = exprio.parse_monomial(opts["graph"])
    before = work_counts()
    t0 = time.perf_counter()
    result = apply_word(word, GraphPolynomial.monomial(graph))
    wall = time.perf_counter() - t0
    text = exprio.format_polynomial(result)
    doc = {
        "type": "expansion",
        "payload": {
            "input": opts["graph"],
            "word": opts["word"] or "",
            "result_polynomial": text,
        },
        "timings": {"wall_s": wall, **_work_since(before)},
    }
    _emit(opts, [text], doc)
    return EXIT_OK


def cmd_verify(opts: dict) -> int:
    graph = exprio.parse_monomial(opts["graph"])
    before = work_counts()
    report = theorem_verify(graph, opts["n"])
    doc = exprio.as_jsonable(report)
    doc["timings"].update(_work_since(before))
    lines = [
        f"graph: {exprio.format_monomial(report.graph)}",
        f"n: {report.n}",
        f"equal: {str(report.equal).lower()}",
        f"raw terms: lhs={report.raw_lhs_terms} rhs={report.raw_rhs_terms}",
        f"canonical terms: lhs={report.canonical_lhs_terms} "
        f"rhs={report.canonical_rhs_terms}",
        f"lhs: {exprio.format_polynomial(report.lhs)}",
        f"rhs: {exprio.format_polynomial(report.rhs)}",
    ]
    _emit(opts, lines, doc)
    return EXIT_OK if report.equal else EXIT_VIOLATION


def cmd_counts(opts: dict) -> int:
    graph = exprio.parse_monomial(opts["graph"])
    report = theorem_verify(graph, opts["n"])
    doc = {
        "type": "term_counts",
        "payload": {
            "graph": exprio.format_monomial(report.graph),
            "n": report.n,
            "raw_lhs_terms": report.raw_lhs_terms,
            "raw_rhs_terms": report.raw_rhs_terms,
            "canonical_lhs_terms": report.canonical_lhs_terms,
            "canonical_rhs_terms": report.canonical_rhs_terms,
        },
        "timings": {"wall_s": report.wall_time_s},
    }
    lines = [
        f"raw_lhs={report.raw_lhs_terms} raw_rhs={report.raw_rhs_terms} "
        f"canonical_lhs={report.canonical_lhs_terms} "
        f"canonical_rhs={report.canonical_rhs_terms}"
    ]
    _emit(opts, lines, doc)
    return EXIT_OK


def _estimate_text(est: lab.QuenchedEstimate) -> str:
    line = (
        f"mean={est.mean!r} stderr={est.stderr!r} samples={est.samples} "
        f"seed={est.seed} method={est.method}"
    )
    if est.truncation is not None:
        line += f" truncation={est.truncation!r}"
    return line


def cmd_estimate(opts: dict) -> int:
    model = _build_model(opts)
    poly = exprio.parse_polynomial(opts["graph"])

    def estimate(lam):
        if opts["method"] == "quadrature":
            return lab.quadrature_expectation(model, poly, lam, opts["nodes"])
        return lab.deformed_expectation(model, poly, lam, opts["samples"], opts["seed"])

    t0 = time.perf_counter()
    est = estimate(opts["lam"])
    wall = time.perf_counter() - t0
    doc = exprio.as_jsonable(est)
    doc["payload"]["model"] = exprio._model_dict(model)
    doc["payload"]["graph"] = opts["graph"]
    doc["payload"]["lambda"] = opts["lam"]
    doc["timings"]["wall_s"] = wall
    lines = [_estimate_text(est)]
    if opts.get("curve_out"):
        grid = sorted(set(_parse_lambda_grid(opts.get("lambda_grid"))) | {0.0})
        with open(opts["curve_out"], "w", encoding="utf-8") as fh:
            fh.write("lambda,mean,stderr\n")
            for lam in grid:
                row = estimate(lam)
                fh.write(f"{lam!r},{row.mean!r},{row.stderr!r}\n")
        lines.append(f"curve written to {opts['curve_out']}")
    _emit(opts, lines, doc)
    return EXIT_OK


def _identity_lines(report: lab.IdentityReport) -> list[str]:
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
    return lines


def cmd_identity(opts: dict) -> int:
    model = _build_model(opts)
    graph = exprio.parse_monomial(opts["graph"])
    config = lab.DeformationConfig(lambda_grid=_parse_lambda_grid(opts["lambda_grid"]))
    report = lab.identity_check(
        model, graph, opts["n"], opts["samples"], opts["seed"],
        config=config, method=opts["method"],
        tol=opts["tol"], lemma_lambda=opts["lemma_lambda"], n_nodes=opts["nodes"],
    )
    _emit(opts, _identity_lines(report), exprio.as_jsonable(report))
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_baseline(opts: dict) -> int:
    model = _build_model(opts)
    report = lab.wick_baseline_check(
        model, opts["samples"], opts["seed"],
        method=opts["method"], n_nodes=opts["nodes"],
    )
    _emit(opts, _identity_lines(report), exprio.as_jsonable(report))
    return EXIT_OK if report.passed else EXIT_VIOLATION


_COMMANDS = {
    "expand": cmd_expand,
    "verify": cmd_verify,
    "counts": cmd_counts,
    "estimate": cmd_estimate,
    "identity": cmd_identity,
    "baseline": cmd_baseline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        opts = _merge_options(args)
        return _COMMANDS[opts["command"]](opts)
    except (exprio.ExpressionParseError, exprio.JsonSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
