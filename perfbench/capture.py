"""Pin the reference result of every benchmark operation.

    python3 perfbench/capture.py

Run from the repository root, once, at the commit that defines the
benchmark; the output, ``perfbench/references.json``, is what every later
run is checked against.  A later change that claims a gain must not
recapture.  Every operation of every pool entry is run in this process
(results do not depend on cache state); ``algebra`` is also run at a second
seed, whose relabeled inputs must reproduce the same references.  Nothing is
written if any operation fails.
"""

import json
import os
import subprocess
import sys

from run import PASS_THREAD_ENV

os.environ.update(PASS_THREAD_ENV)  # before numpy loads, as in every pass
import worker  # noqa: E402  (puts src/ on the path, imports overlap_lab.cli)
import workloads  # noqa: E402


def main() -> int:
    out_path = os.path.join(".perfbench_out", "capture-op.json")
    os.makedirs(".perfbench_out", exist_ok=True)
    refs, problems = {}, []
    for workload in workloads.WORKLOADS:
        seeds = (0, 1) if workload == "algebra" else range(workloads.POOL_SIZE)
        for seed in seeds:
            for op in workloads.build(workload, seed):
                key = f"{workload}/{op.key}"
                rc, wall, _, doc, error = worker.run_op(op.argv, out_path)
                if error is not None:
                    problems.append(f"{key} (seed {seed}): {error}")
                    continue
                ref = worker.reference_of(op, doc)
                if key in refs and refs[key] != ref:
                    problems.append(f"{key} (seed {seed}): differs between seeds")
                refs[key] = ref
                print(f"{wall:8.3f} s  {key}", flush=True)
    os.remove(out_path)
    if problems:
        print("not written; failures:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    import numpy as np

    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         check=True).stdout.strip()
    doc = {
        "captured_at_commit": sha,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "tolerance": {"rel": worker.REL_TOL, "abs": worker.ABS_TOL},
        "ops": dict(sorted(refs.items())),
    }
    with open(os.path.join(os.path.dirname(__file__), "references.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(refs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
