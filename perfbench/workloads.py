"""The benchmark's workloads: the `overlap` command lines each one runs.

Every operation is one call of the public ``overlap_lab.cli.main(argv)``
with ``--json --out``.  ``build(workload, seed)`` turns the benchmark seed
into the operations of one pass; the same seed always gives the same
operations.

* ``algebra`` relabels the vertices of every input graph with a permutation
  drawn from the seed.  The answers are invariant under relabeling, so one
  pinned reference per operation serves every seed.
* ``crn_small``, ``crn_wide`` and ``oracle`` pick entry ``seed % POOL_SIZE``
  of a pool of pinned input sets: disorder seeds for the Monte Carlo
  workloads, a shift of the beta sweep for the quadrature oracle.  Entry 0
  holds the acceptance seeds (2024, 2025, 777).  Every entry has pinned
  references, so each run checks its floats against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("algebra", "crn_small", "crn_wide", "oracle")
POOL_SIZE = 16

#: Halving lambda grid of acceptance criterion 6, used by the oracle.
FINE_GRID = (0.2, 0.1, 0.05, 0.025, 0.0125)
#: Library default grid magnitudes (DeformationConfig), used by the MC rows.
DEFAULT_GRID = (0.2, 0.1, 0.05)

# Graphs as (edges, legs) with 1-based vertex labels.
_P4 = ([(1, 2), (2, 3), (3, 4)], [])
_C4 = ([(1, 2), (2, 3), (3, 4), (1, 4)], [])


def _complete(k):
    return [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)], []


def _petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner, []


#: Criterion-2 graphs, then P4, C4, K4 and {1,2}^2{3,4}.
VERIFY_GRAPHS = (
    ([(1, 2)], []),
    ([(1, 2), (1, 2)], []),
    ([(1, 2), (2, 3)], []),
    ([(1, 2), (3, 4)], []),
    ([(1, 2), (1, 3), (2, 3)], []),
    _P4,
    _C4,
    _complete(4),
    ([(1, 2), (1, 2), (3, 4)], []),
)
#: (graph, word): high-leg contractions, then empty words on graphs whose
#: refinement cannot split cells (K6, K7, K4,4, Petersen).  K8 is left out:
#: at about 1.9 s it would be 40% of a pass and halve the passes per run.
EXPAND_CASES = (
    (([(1, 2)], []), "C d d d d d d d d"),
    (([], [1] * 6 + [2] * 6), "C"),
    (_complete(6), ""),
    (_complete(7), ""),
    (([(i, j) for i in range(1, 5) for j in range(5, 9)], []), ""),
    (_petersen(), ""),
)

STABILITY_POLY = "2{1,2}^2 - 8{1,2}{1,3} + 6{1,2}{3,4}"
ORACLE_BETAS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)

# Monte Carlo operations: (label, model argv, default seed, samples).
CRN_SMALL = (
    ("identity sk3", ["--model", "sk", "--N", "3"], 2024, 2000),
    ("identity ea4", ["--model", "ea", "--lattice", "4"], 2025, 2000),
    ("baseline sk3", ["--model", "sk", "--N", "3"], 777, 4000),
)
CRN_WIDE = (
    ("identity sk5", ["--model", "sk", "--N", "5"], 2026, 800),
    ("identity ea6", ["--model", "ea", "--lattice", "6"], 2027, 600),
)
#: Pool entry j runs each Monte Carlo operation at its default seed + j * SEED_STRIDE.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how to check and count it."""

    key: str  # reference key, stable across seeds that share a reference
    argv: tuple[str, ...]
    method: str = "exact"  # "exact" (payload sha pinned), "mc" or "quadrature"
    samples: int = 0  # disorder samples (mc)
    model: tuple[str, ...] = ()  # model argv, for the trace replays
    seed: int = 0
    row_gains: tuple[float, ...] = ()  # finite-difference gain of each row's lhs


def entry(seed: int) -> int:
    return seed % POOL_SIZE


def _format_graph(edges, legs, labels) -> str:
    parts = [f"{{{labels[i]},{labels[j]}}}" for i, j in edges]
    parts += [f"{{{labels[v]}}}" for v in legs]
    return "".join(parts) or "1"


def _relabeling(rnd: random.Random, edges, legs) -> dict[int, int]:
    verts = sorted({v for e in edges for v in e} | set(legs))
    images = rnd.sample(range(1, 2 * len(verts) + 3), len(verts))
    return dict(zip(verts, images))


def fd_gain(order: int, h: float) -> float:
    """Bound on the sum of |stencil coefficients| of a central difference of
    this order at finest scale h, Richardson levels included: an error e in
    each value of E_lambda moves the difference by at most gain * e."""
    return 2.0 * 2.0**order / h**order


def _algebra(seed: int) -> list[Op]:
    rnd = random.Random(seed)
    ops = []
    for edges, legs in VERIFY_GRAPHS:
        ident = _format_graph(edges, legs, {v: v for e in edges for v in e})
        labels = _relabeling(rnd, edges, legs)
        text = _format_graph(edges, legs, labels)
        for n in (1, 2, 3):
            ops.append(Op(f"verify {ident} n={n}",
                          ("verify", "--graph", text, "--n", str(n))))
    for (edges, legs), word in EXPAND_CASES:
        ident_labels = {v: v for v in {v for e in edges for v in e} | set(legs)}
        ident = _format_graph(edges, legs, ident_labels)
        labels = _relabeling(rnd, edges, legs)
        text = _format_graph(edges, legs, labels)
        ops.append(Op(f"expand {ident} word={word!r}",
                      ("expand", "--graph", text, "--word", word)))
    return ops


def _crn(table, seed: int) -> list[Op]:
    j = entry(seed)
    ops = []
    for label, model, default_seed, samples in table:
        s = default_seed + j * SEED_STRIDE
        common = (*model, "--beta", "0.5", "--samples", str(samples), "--seed", str(s))
        if label.startswith("identity"):
            argv = ("identity", *common, "--graph", "{1,2}", "--n", "1")
            h = min(DEFAULT_GRID)
            gains = (fd_gain(2, h), fd_gain(1, h))
        else:
            argv = ("baseline", *common)
            gains = ()
        ops.append(Op(f"{label} seed={s}", argv, "mc", samples, tuple(model), s, gains))
    return ops


def _oracle(seed: int) -> list[Op]:
    grid = ",".join(repr(m) for m in sorted(FINE_GRID))
    nodes = 64
    model = ("--model", "sk", "--N", "2")
    quad = ("--method", "quadrature", "--nodes", str(nodes))
    ops = []
    for beta in ORACLE_BETAS:
        b = repr(round(beta + 0.01 * entry(seed), 4))
        h = min(FINE_GRID)
        for n, tol in ((1, "1e-6"), (2, "1e-5")):
            ops.append(Op(
                f"identity sk2 beta={b} n={n}",
                ("identity", *model, "--beta", b, *quad, "--graph", "{1,2}",
                 "--n", str(n), "--lambda-grid", grid, "--tol", tol),
                "quadrature", row_gains=(fd_gain(2 * n, h), fd_gain(1, h)),
            ))
        ops.append(Op(f"baseline sk2 beta={b}", ("baseline", *model, "--beta", b, *quad),
                      "quadrature"))
        ops.append(Op(
            f"estimate sk2 beta={b}",
            ("estimate", *model, "--beta", b, *quad, "--graph", STABILITY_POLY,
             "--lam", "0.3"),
            "quadrature",
        ))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    if workload == "algebra":
        return _algebra(seed)
    if workload == "crn_small":
        return _crn(CRN_SMALL, seed)
    if workload == "crn_wide":
        return _crn(CRN_WIDE, seed)
    if workload == "oracle":
        return _oracle(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> tuple[str, ...] | None:
    """The untimed call made before a pass; ``algebra`` runs cold by design.

    The warm-up loads numpy and the lab's code paths but leaves the symbolic
    caches cold, as they are in every fresh `overlap` process."""
    if workload == "crn_small":
        model = CRN_SMALL[0][1]
    elif workload == "crn_wide":
        model = CRN_WIDE[0][1]
    elif workload == "oracle":
        return ("estimate", "--model", "sk", "--N", "2", "--beta", "0.5",
                "--graph", "{1,2}", "--method", "quadrature", "--nodes", "8")
    else:
        return None
    return ("estimate", *model, "--beta", "0.5", "--graph", "{1,2}",
            "--samples", "20", "--seed", "1")
