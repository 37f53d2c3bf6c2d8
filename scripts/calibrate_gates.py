"""Calibration of the Monte Carlo gates: how well diff / diff_stderr follows
a standard normal over many seeds.

    PYTHONPATH=src python3 scripts/calibrate_gates.py

Run from the repository root.  Each stochastic check runs at the size the
README shows (the Gaussian integration-by-parts check, which has no command,
at its default) once per seed 0..199, and for each row of its report the
script records z = diff / diff_stderr.  A calibrated gate gives a mean of z
near 0, a variance near 1 and about 0.0027 * 200 rows failing the 3-sigma
gate.  The result goes to ``CALIBRATION.json`` next to the BENCH
files.  The script reads the gates; it changes none.  It is not part of the
tier-1 suite: it takes several minutes.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import time

import numpy as np

from overlap_lab import (
    ea_model,
    gaussian_ibp_check,
    identity_check,
    parse_monomial,
    sk_model,
    wick_baseline_check,
)

#: (name, README command it stands for, samples, one report per seed).
CHECKS = (
    ("identity ea4", "overlap identity --model ea --lattice 4 --beta 0.5 --graph '{1,2}' --n 1",
     200_000, lambda n, seed: identity_check(ea_model((4,), 0.5), parse_monomial("{1,2}"), 1,
                                             n_samples=n, seed=seed)),
    ("baseline sk3", "overlap baseline --model sk --N 3 --beta 0.5",
     20_000, lambda n, seed: wick_baseline_check(sk_model(3, 0.5), n, seed)),
    ("gaussian ibp", "gaussian_ibp_check()",
     20_000, lambda n, seed: gaussian_ibp_check(n, seed)),
)


#: Every check runs once per seed 0..SEEDS-1.
SEEDS = 200


def calibrate() -> dict:
    checks = []
    for name, command, samples, run in CHECKS:
        t0 = time.perf_counter()
        reports = [run(samples, seed) for seed in range(SEEDS)]
        rows = []
        for k, row in enumerate(reports[0].rows):
            z = [r.rows[k].diff / r.rows[k].diff_stderr for r in reports]
            rows.append({
                "label": row.label,
                "mean_z": round(statistics.fmean(z), 4),
                "var_z": round(statistics.variance(z), 4),
                "gate_failures": sum(not r.rows[k].passed for r in reports),
                "expected_failures": round(SEEDS * math.erfc(3 / math.sqrt(2)), 2),
            })
        checks.append({"check": name, "command": command, "samples": samples,
                       "seeds": [0, SEEDS - 1], "rows": rows,
                       "wall_s": round(time.perf_counter() - t0, 1)})
        print(json.dumps(checks[-1]), flush=True)
    return {
        "method": "z = diff / diff_stderr per row over seeds 0..N-1; a calibrated gate "
                  "reads mean_z near 0, var_z near 1 (sd about sqrt(2 / N)) and "
                  "gate_failures near expected_failures",
        "host": {"python": platform.python_version(), "numpy": np.__version__},
        "checks": checks,
    }


def main() -> int:
    with open("CALIBRATION.json", "w") as fh:
        json.dump(calibrate(), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
