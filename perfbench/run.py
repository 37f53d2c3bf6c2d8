"""overlap-lab benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  W is one of ``algebra``, ``crn_small``,
``crn_wide`` and ``oracle`` (see ``workloads.py`` and ``METRICS.md``).  The
run starts one fresh interpreter per pass (``worker.py``), at least one and
more until S seconds have gone by, with ``OVERLAP_THREADS`` unset and no
``--workers`` flag.  Every operation's result is checked against
``references.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, medians over passes.  With ``--trace 1``
traced and untraced passes alternate and the metrics are the per-layer ones.
The line before it holds the run's provenance; both, with every pass record,
also go to ``.perfbench_out/`` in the checkout.

Exits 2 without a result when the checkout has no ``src/overlap_lab``, and 1
when a pass cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
#: setup_s, wall_s and cpu_s are scaled, pass by pass, to a host on which an
#: interpreter starts and imports numpy in this many seconds (``host_s``,
#: the mean over ``HOST_PROBES`` runs of ``HOST_PROBE``, each a process of
#: its own, timed before and after every pass).  On a shared host the speed
#: of the moment moves a pass's time by 10-30%; host_s measures that speed,
#: and the scaled times spread 2-4 times less from run to run (see
#: METRICS.md).
HOST_REF_S = 0.15
HOST_PROBE = "import sys, time, numpy; print(time.monotonic() - float(sys.argv[1]))"
HOST_PROBES = 3
PER_LAYER_UNITS = {
    "graphs.canonicalize.calls": "count",
    "graphs.canonicalize.hit_ratio": "ratio",
    "graphs.canonicalize.self_s": "s",
    "operators.delta.self_s": "s",
    "operators.big_delta.self_s": "s",
    "operators.wick_contract.self_s": "s",
    "operators.theorem_verify.s": "s",
    "operators.wick_contract.pairings_per_outcome": "ratio",
    "exprio.self_s": "s",
    "cli.overhead_s": "s",
    "lab.samples": "count",
    "lab.gibbs_evals": "count",
    "lab.rng.us_per_sample": "us",
    "lab.gibbs.us_per_eval": "us",
    "lab.contract.us_per_eval": "us",
    "lab.driver.us_per_sample": "us",
    "lab.quadrature.nodes": "count",
    "lab.quadrature.s": "s",
    "samples_per_s": "1/s",
    "time_to_1e-3_s": "s",
    "error_rate": "ratio",
    "trace.overhead_frac": "ratio",
}
#: Thread settings of every pass.  BLAS runs one thread: on a small shared
#: host a second BLAS thread makes wall time depend on the neighbours' load.
PASS_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
PASS_TIMEOUT_S = 150
ACCURACY = 1e-3  # target standard error of time_to_1e-3_s


def provenance(root: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    sha = None
    if os.path.exists(os.path.join(root, ".git")):  # git would search parent directories
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env_inherited": {k: os.environ.get(k)
                                 for k in ("OVERLAP_THREADS", *PASS_THREAD_ENV)},
        "thread_env_of_passes": dict(PASS_THREAD_ENV, OVERLAP_THREADS=None),
        "git_sha": sha,
    }


def pass_env() -> dict:
    env = dict(os.environ, **PASS_THREAD_ENV)
    env.pop("OVERLAP_THREADS", None)
    return env


def probe_host(root) -> float:
    """Mean seconds from spawning an interpreter until it has imported numpy."""
    times = []
    for _ in range(HOST_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", HOST_PROBE, repr(spawned)], cwd=root,
                              env=pass_env(), capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"host probe exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout))
    return statistics.fmean(times)


def run_pass(root, out_dir, args, traced, tag) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--out-dir", out_dir,
           "--refs", os.path.join(HERE, "references.json"), "--tag", str(tag),
           "--spawned"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned)], cwd=root, env=pass_env(), capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mc_rates(record) -> tuple[float, float]:
    """(samples per MC second, seconds to reach stderr 1e-3 on every identity)."""
    mc = [r for r in record["ops"] if r["method"] == "mc"]
    wall = sum(r["wall_s"] for r in mc)
    rate = sum(r["samples"] for r in mc) / wall if wall else 0.0
    t_acc = sum(r["wall_s"] * (r.get("diff_stderr", 0.0) / ACCURACY) ** 2
                for r in mc if r["key"].startswith("identity"))
    return rate, t_acc


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "overlap_lab", "cli.py")):
        print(f"no src/overlap_lab under {root}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    deadline = time.monotonic() + args.seconds
    kinds = (True, False) if args.trace else (False,)
    runs = {kind: [] for kind in kinds}
    hosts = []  # host_s before the first untraced pass and after every one
    tag = 0
    try:
        if not args.trace:
            hosts.append(probe_host(root))
        while True:
            for kind in kinds:
                runs[kind].append(run_pass(root, out_dir, args, kind, tag))
                tag += 1
            if not args.trace:
                hosts.append(probe_host(root))
            if time.monotonic() >= deadline:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    records = [r for v in runs.values() for r in v]
    ops = [op for r in records for op in r["ops"]]
    failed = [op for op in ops if op["error"] is not None]

    def median(rs, key):
        return statistics.median(r[key] for r in rs)

    if args.trace:
        traced, plain = runs[True], runs[False]
        rates = [mc_rates(r) for r in plain]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values.update({
            "samples_per_s": statistics.median(x[0] for x in rates),
            "time_to_1e-3_s": statistics.median(x[1] for x in rates),
            "error_rate": len(failed) / len(ops),
            "trace.overhead_frac": median(traced, "wall_s") / median(plain, "wall_s") - 1.0,
        })
        metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        # A pass's set-up directly follows the probe before it; the probes
        # before and after a pass bracket its operations.
        scaled = [dict(r, setup_s=r["setup_s"] * HOST_REF_S / before,
                       wall_s=r["wall_s"] * HOST_REF_S / ((before + after) / 2),
                       cpu_s=r["cpu_s"] * HOST_REF_S / ((before + after) / 2))
                  for r, before, after in zip(records, hosts, hosts[1:])]
        metrics = {name: metric(median(scaled, name), unit)
                   for name, unit in END_TO_END.items()}

    info = provenance(root)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, pool_entry=workloads.entry(args.seed),
                passes=len(records), error_rate=len(failed) / len(ops),
                host_s=statistics.median(hosts) if hosts else None,
                unscaled={k: median(records, k) for k in ("setup_s", "wall_s", "cpu_s")},
                failures=sorted({f"{op['key']}: {op['error']}" for op in failed}))
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "result": result, "hosts": hosts, "passes": records},
                  fh, indent=1)
    print("provenance " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
