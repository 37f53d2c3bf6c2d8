"""One pass of a benchmark workload, in a fresh interpreter.

Run by ``run.py`` from the root of a checkout; prints one JSON record as its
last line of output.  ``setup_s`` runs from the moment the parent spawned
this process (``--spawned``, a ``time.monotonic`` reading, which is
system-wide on Linux) until ``overlap_lab.cli`` is imported from the
checkout's ``src/``.  The program is the first thing imported, so whatever it
loads (numpy included) counts toward ``setup_s`` and ``peak_rss_mb``.
"""

import os
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import overlap_lab.cli  # noqa: E402  (set-up ends with this import)

READY = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REL_TOL = 1e-9
ABS_TOL = 1e-12
#: Relative change in each computed expectation that a correct build may make
#: (a reordered float sum moves the last bits, about 1e-14); a row's lhs is a
#: finite difference of such values and may move by its gain times this.
VALUE_EPS = 1e-14


def payload_sha(payload: dict) -> str:
    """sha256 of the canonical JSON form the CLI documents for payloads."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run_op(argv, out_path):
    """Call the CLI once; return (exit code, wall s, cpu s, JSON doc, error)."""
    if os.path.exists(out_path):
        os.remove(out_path)
    args = list(argv) + ["--json", "--out", out_path]
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc = overlap_lab.cli.main(args)
    except Exception as exc:  # any exception is a failed operation
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    doc = None
    if rc == 0:
        try:
            with open(out_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            error = f"unreadable report: {exc}"
    elif error is None:
        error = f"exit code {rc}"
    return rc, wall, cpu, doc, error


def reference_of(op, doc) -> dict:
    """The pinned form of one operation's result."""
    payload = doc["payload"]
    if op.method == "exact":
        if op.argv[0] == "expand":  # the input text carries the seed's relabeling
            payload = {k: v for k, v in payload.items() if k != "input"}
        return {"sha": payload_sha(payload)}
    if "rows" in payload:
        return {
            "passed": payload["passed"],
            "rows": [[r["lhs"], r["rhs"], r["diff_stderr"]] for r in payload["rows"]],
        }
    return {"mean": payload["mean"], "stderr": payload["stderr"]}


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check(op, doc, ref) -> str | None:
    """None when the result matches its reference, else the reason."""
    if ref is None:
        return "no pinned reference"
    if doc.get("payload_sha256") != payload_sha(doc["payload"]):
        return "payload_sha256 does not match the payload"
    got = reference_of(op, doc)
    if op.method == "exact":
        return None if got == ref else "payload differs from the reference"
    if got.keys() != ref.keys():
        return "report kind differs from the reference"
    if "rows" in ref:
        if got["passed"] is not ref["passed"] or len(got["rows"]) != len(ref["rows"]):
            return "rows differ from the reference"
        gains = op.row_gains or (0.0,) * len(ref["rows"])
        for (lhs, rhs, err), (lhs0, rhs0, err0), gain in zip(got["rows"], ref["rows"], gains):
            if not (math.isclose(lhs, lhs0, rel_tol=REL_TOL, abs_tol=ABS_TOL + gain * VALUE_EPS)
                    and _close(rhs, rhs0) and _close(err, err0)):
                return "rows differ from the reference"
        return None
    if not (_close(got["mean"], ref["mean"]) and _close(got["stderr"], ref["stderr"])):
        return "mean differs from the reference"
    return None


def _model(pkg, model_argv, beta=0.5):
    opts = dict(zip(model_argv[::2], model_argv[1::2]))
    if opts["--model"] == "sk":
        return pkg.sk_model(int(opts["--N"]), beta)
    return pkg.ea_model(tuple(int(x) for x in opts["--lattice"].split("x")), beta)


def _median_time(fn, repeats=5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def lab_replay(pkg, ops, n=200) -> dict:
    """Per-sample cost of each stage of the Monte Carlo identity path,
    replayed through public functions on the first ``n`` samples of every
    identity operation's stream, averaged over those operations (zeros when
    the workload has none)."""
    import numpy

    stability = pkg.big_delta(pkg.GraphPolynomial.monomial(pkg.edge(1, 2)))
    one = pkg.GraphPolynomial.monomial(pkg.EMPTY)
    rows = []
    for op in ops:
        if op.method != "mc" or op.argv[0] != "identity":
            continue
        model = _model(pkg, op.model)
        shape = model.coupling_shape

        def draws():
            out = []
            for i in range(n):
                rng = numpy.random.default_rng((op.seed, i))
                out.append((rng.standard_normal(shape), rng.standard_normal(shape)))
            return out

        pairs = draws()
        rng_s = _median_time(draws) / n
        gibbs_s = _median_time(
            lambda: [pkg.gibbs_weights(model, j, 0.1, h) for j, h in pairs]) / n
        one_s = _median_time(
            lambda: pkg.deformed_expectation(model, one, 0.0, n, op.seed)) / n
        stab_s = _median_time(
            lambda: pkg.deformed_expectation(model, stability, 0.0, n, op.seed)) / n
        rows.append((rng_s, gibbs_s, stab_s - one_s, one_s - rng_s - gibbs_s))
    if not rows:
        return {"rng": 0.0, "gibbs": 0.0, "contract": 0.0, "driver": 0.0}
    means = [statistics.fmean(col) * 1e6 for col in zip(*rows)]
    return dict(zip(("rng", "gibbs", "contract", "driver"), means))


def pairings_per_outcome(tracer, pkg) -> float:
    """Labelled pairings that enumeration builds, over the distinct terms they
    merge into, summed over the distinct input terms of ``wick_contract``."""
    wick = tracer.originals["operators.wick_contract"]
    pairings = outcomes = 0
    for g in tracer.wick_inputs:
        legs = sum(n for _, n in g.legs)
        if legs % 2:
            continue  # odd terms vanish without enumeration
        pairings += pkg.double_factorial(legs - 1)
        outcomes += len(wick(pkg.GraphPolynomial.monomial(g)))
    return pairings / outcomes if outcomes else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--refs", required=True)
    parser.add_argument("--tag", default="0")
    args = parser.parse_args()

    pkg = sys.modules["overlap_lab"]
    if not os.path.realpath(pkg.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"overlap_lab was imported from {pkg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(args.refs, encoding="utf-8") as fh:
        refs = json.load(fh)["ops"]

    out_path = os.path.join(args.out_dir, f"op-{os.getpid()}.json")
    ops = workloads.build(args.workload, args.seed)
    warm = workloads.warmup(args.workload)
    if warm is not None:
        run_op(warm, out_path)

    tracer = Tracer(pkg) if args.trace else None
    canon = pkg.graphs.canonicalize
    cache0 = canon.cache_info()
    if tracer:
        tracer.install()
    records, functions = [], {}
    counts = {}  # (op method, tracer counter) -> count over the pass
    cli_overhead = quad_s = 0.0
    for op in ops:
        mark = tracer.mark() if tracer else 0
        counts0 = dict(tracer.counts) if tracer else {}
        rc, wall, cpu, doc, error = run_op(op.argv, out_path)
        if error is None:
            error = check(op, doc, refs.get(f"{args.workload}/{op.key}"))
        rec = {"key": op.key, "rc": rc, "wall_s": wall, "cpu_s": cpu,
               "error": error, "method": op.method, "samples": op.samples}
        if doc is not None and op.method == "mc":
            rec["diff_stderr"] = doc["payload"]["rows"][0]["diff_stderr"]
        records.append(rec)
        if tracer:
            summ = tracer.summarize(mark, tracer.mark())
            cli_overhead += wall - summ["top_level_s"]
            for k, n in tracer.counts.items():
                counts[op.method, k] = counts.get((op.method, k), 0) + n - counts0[k]
            for name, row in summ["functions"].items():
                acc = functions.setdefault(name, {"s": 0.0, "self_s": 0.0})
                for k in acc:
                    acc[k] += row[k]
                if op.method == "quadrature" and name.startswith("lab."):
                    quad_s += row["self_s"]
    if tracer:
        tracer.uninstall()
    cache1 = canon.cache_info()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if os.path.exists(out_path):
        os.remove(out_path)

    result = {
        "setup_s": READY - args.spawned,
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": rss_mb,
        "ops": records,
    }
    if tracer:
        hits = cache1.hits - cache0.hits
        calls = hits + cache1.misses - cache0.misses

        def fn(name, key="self_s"):
            return functions.get(name, {}).get(key, 0.0)

        replay = lab_replay(pkg, ops)
        result["layers"] = {
            "graphs.canonicalize.calls": calls,
            "graphs.canonicalize.hit_ratio": hits / calls if calls else 0.0,
            "graphs.canonicalize.self_s": fn("graphs.canonicalize"),
            "operators.delta.self_s": fn("operators.delta"),
            "operators.big_delta.self_s": fn("operators.big_delta"),
            "operators.wick_contract.self_s": fn("operators.wick_contract"),
            "operators.theorem_verify.s": fn("operators.theorem_verify", "s"),
            "operators.wick_contract.pairings_per_outcome": pairings_per_outcome(tracer, pkg),
            "exprio.self_s": sum(row["self_s"] for name, row in functions.items()
                                 if name.startswith("exprio.")),
            "cli.overhead_s": cli_overhead,
            "lab.samples": counts.get(("mc", "rng"), 0),
            "lab.gibbs_evals": counts.get(("mc", "gibbs"), 0),
            "lab.rng.us_per_sample": replay["rng"],
            "lab.gibbs.us_per_eval": replay["gibbs"],
            "lab.contract.us_per_eval": replay["contract"],
            "lab.driver.us_per_sample": replay["driver"],
            "lab.quadrature.nodes": counts.get(("quadrature", "gibbs"), 0),
            "lab.quadrature.s": quad_s,
        }
        tracer.dump(os.path.join(
            args.out_dir, f"spans-{args.workload}-seed{args.seed}-{args.tag}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
