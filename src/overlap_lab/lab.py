"""Small quenched spin systems: exact Gibbs sums over all configurations,
Monte Carlo over the disorder, a Gauss-Hermite oracle for the two-spin SK
instance, and finite-size identity checks against the symbolic engine.

Conventions that the reproducibility contract depends on:

* Disorder sample ``i`` of a run with seed ``s`` uses the independent stream
  ``numpy.random.default_rng((s, i))`` and always draws the Hamiltonian
  couplings first, then the deformation-field couplings.
* Samples are evaluated in chunks whose length follows from the model and
  the number of deformation nodes (never from the worker count); per-sample
  results land in preallocated slots and are reduced with exact summation in
  index order, so estimates are bit-identical for any worker count.  Batched
  arithmetic rounds differently from a one-sample-at-a-time evaluation, in
  the last bits (about 1e-14 relative, magnified by finite-difference
  stencils).
* Whenever an identity compares two estimates, both sides are computed from
  the same draws within each sample (common random numbers).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .graphs import GraphPolynomial, Multigraph, canonicalize
from .operators import BudgetError, big_delta, double_factorial

__all__ = [
    "DEFAULT_REPLICA_BUDGET",
    "MAX_ENUMERATED_SITES",
    "ModelInstance",
    "DisorderSample",
    "QuenchedEstimate",
    "DeformationConfig",
    "IdentityRow",
    "IdentityReport",
    "sk_model",
    "ea_model",
    "overlap_sk",
    "link_overlap_ea",
    "gibbs_weights",
    "replica_moment",
    "quenched_expectation",
    "deformed_expectation",
    "quadrature_expectation",
    "fd_derivative",
    "identity_check",
    "wick_baseline_check",
    "gaussian_ibp_check",
    "stability_deviation",
]

#: Refuse replica sums needing more than this many joint Gibbs states.
DEFAULT_REPLICA_BUDGET = 2**24

#: Exact enumeration keeps the full 2^N x 2^N overlap matrix in memory.
MAX_ENUMERATED_SITES = 10

_SK_MIN_SPINS, _SK_MAX_SPINS = 2, 5


@dataclass(frozen=True)
class ModelInstance:
    """An SK or EA system small enough for exact configuration sums.

    ``kind`` is ``"sk"`` (fully coupled, N^2 Gaussian couplings including the
    diagonal and both orders) or ``"ea"`` (nearest-neighbor bonds on a
    periodic lattice, one Gaussian per bond).  Use :func:`sk_model` /
    :func:`ea_model` to construct validated instances.
    """

    kind: str
    beta: float
    n_sites: int
    dims: tuple[int, ...] | None = None

    @property
    def n_configs(self) -> int:
        return 2**self.n_sites

    @cached_property
    def spins(self) -> np.ndarray:
        """All configurations as a (2^N, N) matrix of +-1."""
        bits = (np.arange(self.n_configs)[:, None] >> np.arange(self.n_sites)) & 1
        return 1.0 - 2.0 * bits.astype(np.float64)

    @cached_property
    def bonds(self) -> tuple[tuple[int, int], ...]:
        """Nearest-neighbor site pairs with periodic wrap (EA only)."""
        if self.kind != "ea":
            raise AttributeError("bonds are defined for EA models only")
        dims = self.dims
        assert dims is not None
        strides = [1] * len(dims)
        for k in range(len(dims) - 2, -1, -1):
            strides[k] = strides[k + 1] * dims[k + 1]

        def ravel(coords):
            return sum(c * s for c, s in zip(coords, strides))

        out = set()
        for coords in product(*[range(side) for side in dims]):
            i = ravel(coords)
            for k, side in enumerate(dims):
                if side == 1:
                    continue
                nb = list(coords)
                nb[k] = (nb[k] + 1) % side
                j = ravel(nb)
                if i != j:
                    out.add((min(i, j), max(i, j)))
        return tuple(sorted(out))

    @cached_property
    def bond_products(self) -> np.ndarray:
        """sigma_i * sigma_j per configuration and bond, shape (2^N, |B|)."""
        left = np.array([b[0] for b in self.bonds])
        right = np.array([b[1] for b in self.bonds])
        return self.spins[:, left] * self.spins[:, right]

    @cached_property
    def overlap(self) -> np.ndarray:
        """Pairwise covariance kernel over configurations.

        SK: squared site overlap in [0, 1]; EA: link overlap in [-1, 1].
        The diagonal is exactly one in both cases.
        """
        if self.kind == "sk":
            q = (self.spins @ self.spins.T) / self.n_sites
            return q * q
        p = self.bond_products
        return (p @ p.T) / len(self.bonds)

    @property
    def coupling_shape(self) -> tuple[int, ...]:
        if self.kind == "sk":
            return (self.n_sites, self.n_sites)
        return (len(self.bonds),)

    def describe(self) -> str:
        if self.kind == "sk":
            return f"sk(N={self.n_sites}, beta={self.beta})"
        return f"ea(dims={'x'.join(map(str, self.dims))}, beta={self.beta})"


def sk_model(n_spins: int, beta: float) -> ModelInstance:
    if not _SK_MIN_SPINS <= n_spins <= _SK_MAX_SPINS:
        raise ValueError(
            f"SK spin count must be in [{_SK_MIN_SPINS}, {_SK_MAX_SPINS}], got {n_spins}"
        )
    _check_beta(beta)
    return ModelInstance(kind="sk", beta=float(beta), n_sites=n_spins)


def ea_model(dims, beta: float) -> ModelInstance:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"lattice dimensions must be positive, got {dims}")
    n_sites = math.prod(dims)
    if n_sites > MAX_ENUMERATED_SITES:
        raise BudgetError(
            f"{n_sites} sites exceed the exact-enumeration bound of "
            f"{MAX_ENUMERATED_SITES}"
        )
    _check_beta(beta)
    model = ModelInstance(kind="ea", beta=float(beta), n_sites=n_sites, dims=dims)
    if not model.bonds:
        raise ValueError(f"lattice {dims} has no nearest-neighbor bonds")
    return model


def _check_beta(beta: float):
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"inverse temperature must be finite and >= 0, got {beta}")


@dataclass(eq=False)
class DisorderSample:
    """One draw of the Hamiltonian couplings plus an independent set for the
    deformation field (both standard normal, same shape)."""

    couplings: np.ndarray
    field_couplings: np.ndarray


def _neg_energy(model: ModelInstance, couplings: np.ndarray) -> np.ndarray:
    """-H per configuration; leading axes of ``couplings`` are batch axes."""
    if model.kind == "sk":
        return np.einsum("...ij,ci,cj->...c", couplings, model.spins, model.spins)
    return couplings @ model.bond_products.T


def _field_values(model: ModelInstance, field_couplings: np.ndarray) -> np.ndarray:
    norm = model.n_sites if model.kind == "sk" else math.sqrt(len(model.bonds))
    return _neg_energy(model, field_couplings) / norm


def _softmax(x: np.ndarray) -> np.ndarray:
    w = np.exp(x - x.max())
    w /= w.sum()
    assert np.all(np.isfinite(w)) and abs(w.sum() - 1.0) < 1e-14
    return w


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """One Gibbs measure per row of the last axis, each checked like
    :func:`_softmax`."""
    w = np.exp(x - x.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    assert np.all(np.isfinite(w)) and np.all(np.abs(w.sum(axis=-1) - 1.0) < 1e-14)
    return w


def gibbs_weights(model, couplings, lam=0.0, field_couplings=None) -> np.ndarray:
    """Normalized Gibbs weights over all 2^N configurations, optionally tilted
    by ``exp(lam * h)`` with the field built from ``field_couplings``.

    Log-sum-exp stabilization makes overflow impossible; the result is
    nonnegative and sums to one within 1e-14.
    """
    x = model.beta * _neg_energy(model, couplings)
    if field_couplings is not None:
        x = x + lam * _field_values(model, field_couplings)
    elif lam != 0.0:
        raise ValueError("a deformed measure needs field couplings")
    return _softmax(x)


def overlap_sk(sigma, sigma_prime, n_spins: int) -> float:
    """Squared site overlap of two +-1 spin vectors of length ``n_spins``."""
    s, sp = list(sigma), list(sigma_prime)
    if len(s) != n_spins or len(sp) != n_spins:
        raise ValueError("spin vectors must have length n_spins")
    if any(v not in (-1, 1) for v in s + sp):
        raise ValueError("spin entries must be +-1")
    q = sum(a * b for a, b in zip(s, sp)) / n_spins
    return q * q


def link_overlap_ea(sigma, sigma_prime, bonds) -> float:
    """Bond overlap |B|^-1 sum over bonds of sigma_i sigma_j sigma'_i sigma'_j."""
    s, sp = list(sigma), list(sigma_prime)
    bonds = list(bonds)
    if not bonds:
        raise ValueError("bond set is empty")
    if any(v not in (-1, 1) for v in s + sp):
        raise ValueError("spin entries must be +-1")
    tot = 0
    for i, j in bonds:
        tot += s[i] * s[j] * sp[i] * sp[j]
    return tot / len(bonds)


# --------------------------------------------------------------------------
# Replica moments: contract a leg-free polynomial against per-replica Gibbs
# weights by exact summation over the product configuration space.

def _as_polynomial(p) -> GraphPolynomial:
    if isinstance(p, GraphPolynomial):
        return p
    if isinstance(p, Multigraph):
        return GraphPolynomial.monomial(p)
    raise TypeError(f"expected GraphPolynomial or Multigraph, got {type(p).__name__}")


def _leg_free_polynomial(p) -> GraphPolynomial:
    poly = _as_polynomial(p)
    for g, _ in poly.items():
        if not g.is_leg_free():
            raise ValueError(f"expectations are defined for leg-free input, got {g!r}")
    return poly


class _PolyMoments:
    """Contractions for the terms of a leg-free polynomial against batches of
    Gibbs weights.

    Each term with support {1..R} is the contraction of R copies of the
    weights against the fixed product of edge-overlap matrices.  Its greedy
    contraction order is found once, on the shapes of a single sample, with
    intermediates of at most three replica indices (the 4-cycle needs two,
    K4 three).  That order then runs on weights of shape (..., n_configs), in
    slices of rows whose largest intermediates stay within ``_CHUNK_FLOATS``.
    """

    def __init__(self, model, poly, budget=None):
        budget = DEFAULT_REPLICA_BUDGET if budget is None else budget
        nc = model.n_configs
        overlap = model.overlap
        powers: dict[int, np.ndarray] = {1: overlap}
        self._terms = []  # (coeff, r, contraction steps, overlap powers, rows)
        self._constant = 0.0
        for g, coeff in poly.items():
            r = len(g.support)
            if nc**r > budget:
                raise BudgetError(
                    f"term {g!r} needs {nc}^{r} = {nc**r} joint Gibbs states, "
                    f"over the replica budget {budget}"
                )
            if r == 0:
                self._constant += float(coeff)
                continue
            letters = [chr(ord("a") + t) for t in range(r)]
            subs = list(letters)
            ops = []
            for i, j, m in g.edges:
                if m not in powers:
                    powers[m] = overlap**m
                ops.append(powers[m])
                subs.append(letters[i - 1] + letters[j - 1])
            path = np.einsum_path(
                ",".join(subs) + "->",
                *([np.empty(nc)] * r + ops),
                optimize=("greedy", nc**3),
            )[0][1:]
            steps = _plan(["..." + x for x in letters] + subs[r:], path)
            peak = max(nc ** (len(out) - 3) for _, _, out in steps)
            rows = max(1, _CHUNK_FLOATS // max(peak, nc))
            self._terms.append((float(coeff), r, steps, tuple(ops), rows))

    def value_grid(self, weights: np.ndarray) -> np.ndarray:
        """Batched evaluation: ``weights`` has shape (..., n_configs)."""
        flat = weights.reshape(-1, weights.shape[-1])
        total = np.full(len(flat), self._constant)
        for coeff, r, steps, ops, rows in self._terms:
            for lo in range(0, len(flat), rows):
                part = flat[lo:lo + rows]
                total[lo:lo + rows] += coeff * _contract(steps, [part] * r + list(ops))
        return total.reshape(weights.shape[:-1])


def _plan(subs, path):
    """Steps (operand positions, their subscripts, result subscripts) of an
    einsum path over ``subs``; batch axes ``...`` come first in every
    result."""
    subs = list(subs)
    steps = []
    for step in path:
        taken = sorted(step, reverse=True)
        inputs = [subs.pop(k) for k in taken]
        rest = "".join(subs)
        kept = {c for s in inputs for c in s if c.isalpha() and c in rest}
        subs.append("..." + "".join(sorted(kept)))
        steps.append((taken, inputs, subs[-1]))
    return steps


def _contract(steps, operands) -> np.ndarray:
    """Run the steps of :func:`_plan`.  A batched operand times an overlap
    matrix over one shared index is one matmul: with numpy 2.4,
    ``np.einsum(..., optimize=path)`` took 15 ms per chunk on the EA ring of
    6 (transposed matmul operands), and einsum's own loop is 10-15 times
    slower than matmul on these steps.
    """
    for taken, inputs, out in steps:
        args = [operands.pop(k) for k in taken]
        operands.append(_step(inputs, out, args))
    return operands[0]


def _step(inputs, out, args) -> np.ndarray:
    fixed = [k for k, sub in enumerate(inputs) if not sub.startswith("...")]
    if len(inputs) == 2 and len(fixed) == 1:
        m, b = inputs[fixed[0]], 1 - fixed[0]
        x = inputs[b][3:]
        shared = set(x) & set(m)
        if len(shared) == 1:
            (s,) = shared
            t = m.replace(s, "")
            if out[3:] == "".join(sorted(x.replace(s, "") + t)):
                nb = args[b].ndim - len(x)
                a = np.moveaxis(args[b], nb + x.index(s), -1)
                mat = args[1 - b] if m[0] == s else args[1 - b].T
                y = a.reshape(-1, a.shape[-1]) @ mat
                y = y.reshape(a.shape[:-1] + mat.shape[1:])
                return np.moveaxis(y, -1, nb + out[3:].index(t))
    return np.einsum(",".join(inputs) + "->" + out, *args)


def replica_moment(model, couplings, lam, field_couplings, g, budget=None) -> float:
    """Thermal replica average of one leg-free monomial under the (possibly
    deformed) Gibbs measure for a single disorder realization.

    Isomorphic monomials share a canonical key, so they produce bit-identical
    values.
    """
    gc = canonicalize(g)
    if not gc.is_leg_free():
        raise ValueError("replica_moment expects a leg-free monomial")
    evaluator = _PolyMoments(model, GraphPolynomial.monomial(gc), budget)
    weights = gibbs_weights(model, couplings, lam, field_couplings)
    return float(evaluator.value_grid(weights[None])[0])


# --------------------------------------------------------------------------
# Monte Carlo over disorder.

@dataclass(frozen=True)
class QuenchedEstimate:
    """A disorder-averaged value: mean, standard error, provenance.

    Quadrature results report stderr 0 together with a truncation bound
    obtained by doubling the node count; ``samples`` then holds the node
    count per dimension.
    """

    mean: float
    stderr: float
    samples: int
    seed: int
    method: str
    truncation: float | None = None


#: Floats in one chunk's widest per-sample block, the (samples, lambda
#: nodes, 2^N) Gibbs weights for the models, and in one row slice of a
#: replica contraction's intermediates; chunk and slice lengths follow from
#: it, so memory stays flat in the sample count.
_CHUNK_FLOATS = 2**14


def _mc_slots(seed, n_samples, workers, draw_shape, width, per_sample, fill):
    """Per-sample result columns, shape (n_samples, width).

    Samples run in chunks of ``_CHUNK_FLOATS // per_sample``.  For each chunk
    the draws of sample i fill row i of a (samples, *draw_shape) array from
    ``default_rng((seed, i))``, in C order, and ``fill(draws)`` returns that
    chunk's (samples, width) rows.  Workers take whole chunks.
    """
    if n_samples < 1:
        raise ValueError("need at least one disorder sample")
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    slots = np.empty((n_samples, width), dtype=np.float64)
    chunk = max(1, _CHUNK_FLOATS // per_sample)

    def run(lo):
        hi = min(lo + chunk, n_samples)
        draws = np.empty((hi - lo, *draw_shape))
        for i in range(lo, hi):
            np.random.default_rng((seed, i)).standard_normal(out=draws[i - lo])
        slots[lo:hi] = fill(draws)

    starts = range(0, n_samples, chunk)
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))
    else:
        for lo in starts:
            run(lo)
    return slots


def _gibbs_grid(model, draws, lams) -> np.ndarray:
    """(samples, len(lams), 2^N) Gibbs weights for draws of shape (samples,
    2, *coupling_shape): Hamiltonian couplings, then field couplings."""
    x = model.beta * _neg_energy(model, draws[:, 0])
    h = _field_values(model, draws[:, 1])
    return _softmax_last(x[:, None, :] + np.asarray(lams)[:, None] * h[:, None, :])


def _column_stats(col: np.ndarray) -> tuple[float, float]:
    m = len(col)
    mean = math.fsum(col) / m
    if m == 1:
        return mean, 0.0
    var = math.fsum((col - mean) ** 2) / (m - 1)
    return mean, math.sqrt(var / m)


def deformed_expectation(
    model,
    p,
    lam,
    n_samples,
    seed,
    *,
    workers=1,
    antithetic_h=False,
    budget=None,
) -> QuenchedEstimate:
    """Monte Carlo estimate of the deformed quenched expectation of ``p``.

    ``antithetic_h=True`` flips the sign of the field couplings in every
    sample; combined with ``-lam`` this reproduces the ``+lam`` estimator
    bit-exactly, the estimator-level statement that expectations are even in
    the deformation strength.
    """
    evaluator = _PolyMoments(model, _leg_free_polynomial(p), budget)

    def fill(draws):
        if antithetic_h:
            draws[:, 1] *= -1.0
        return evaluator.value_grid(_gibbs_grid(model, draws, [lam]))

    slots = _mc_slots(seed, n_samples, workers, (2, *model.coupling_shape), 1,
                      model.n_configs, fill)
    mean, err = _column_stats(slots[:, 0])
    return QuenchedEstimate(mean, err, n_samples, int(seed), "mc")


def quenched_expectation(
    model, p, n_samples, seed, *, workers=1, budget=None
) -> QuenchedEstimate:
    """Undeformed quenched expectation; the lam=0 special case of
    :func:`deformed_expectation` (same code path, same random streams)."""
    return deformed_expectation(
        model, p, 0.0, n_samples, seed, workers=workers, budget=budget
    )


def stability_deviation(
    model, g, n_samples, seed, *, workers=1, budget=None
) -> QuenchedEstimate:
    """Quenched average of the stability polynomial of ``g``.

    This is the quantity whose exact vanishing characterizes stochastic
    stability; at finite size it is reported as a deviation, never asserted
    to be zero.
    """
    return quenched_expectation(
        model, big_delta(_as_polynomial(g)), n_samples, seed,
        workers=workers, budget=budget,
    )


# --------------------------------------------------------------------------
# Gauss-Hermite oracle for SK with two spins.
#
# With two spins every Gibbs ratio depends on the couplings only through
# u = J12 + J21 (the diagonal terms are constant across configurations and
# cancel), and the deformation ratio likewise only through v = J'12 + J'21.
# Both are N(0, 2), leaving low-dimensional Gaussian integrals.

def _require_sk2(model):
    if model.kind != "sk" or model.n_sites != 2:
        raise ValueError("the quadrature oracle requires an SK instance with N=2")


def _gauss_hermite(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    return x, w / math.sqrt(math.pi)


def _sk2_weight_grid(model, lam, n_nodes):
    """Weight vectors over the (u[, v]) quadrature grid plus grid weights."""
    x, wq = _gauss_hermite(n_nodes)
    u = 2.0 * x  # standard deviation sqrt(2) under Gauss-Hermite scaling
    s = model.spins[:, 0] * model.spins[:, 1]
    if lam == 0.0:
        logits = (model.beta * u)[:, None] * s
        return _softmax_last(logits), wq
    v = 2.0 * x
    t = model.beta * u[:, None] + (0.5 * lam) * v[None, :]
    logits = t[..., None] * s
    return _softmax_last(logits), np.multiply.outer(wq, wq)


def _sk2_poly_value(model, evaluator, lam, n_nodes) -> float:
    weights, wq = _sk2_weight_grid(model, lam, n_nodes)
    return float(np.sum(wq * evaluator.value_grid(weights)))


def quadrature_expectation(
    model, p, lam=0.0, n_nodes=64, budget=None
) -> QuenchedEstimate:
    """Deterministic disorder average for SK with N=2 on a Gauss-Hermite grid.

    The reported truncation bound is the change under doubling the node
    count; stderr is zero by construction.
    """
    _require_sk2(model)
    poly = _leg_free_polynomial(p)
    evaluator = _PolyMoments(model, poly, budget)
    value = _sk2_poly_value(model, evaluator, lam, n_nodes)
    check = _sk2_poly_value(model, evaluator, lam, 2 * n_nodes)
    return QuenchedEstimate(
        mean=value,
        stderr=0.0,
        samples=n_nodes,
        seed=0,
        method="quadrature",
        truncation=abs(value - check),
    )


# --------------------------------------------------------------------------
# Finite differences in the deformation strength.

_STENCILS = {
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
}


@dataclass(frozen=True)
class DeformationConfig:
    """Symmetric deformation grid and differentiation plan.

    Magnitudes must form a halving chain (each next one is half the
    previous), which is what the Richardson table assumes.  The center 0 is
    implicit.  ``richardson_levels=None`` uses every available scale.
    """

    lambda_grid: tuple[float, ...] = (-0.2, -0.1, -0.05, 0.05, 0.1, 0.2)
    fd_order: int = 2
    richardson_levels: int | None = None

    def __post_init__(self):
        grid = tuple(float(x) for x in self.lambda_grid)
        object.__setattr__(self, "lambda_grid", grid)
        if not grid:
            raise ValueError("lambda grid is empty")
        vals = set(grid)
        for lam in grid:
            if lam == 0.0:
                raise ValueError("0 is implicit; list only the offsets")
            if -lam not in vals:
                raise ValueError(f"grid must be symmetric about 0; missing {-lam}")
        mags = self.magnitudes
        for a, b in zip(mags, mags[1:]):
            if abs(a - 2.0 * b) > 1e-12 * a:
                raise ValueError(
                    f"grid magnitudes must halve, got consecutive {a} and {b}"
                )
        if self.fd_order not in _STENCILS:
            raise ValueError(f"fd_order must be one of {sorted(_STENCILS)}")
        if self.richardson_levels is not None and self.richardson_levels < 0:
            raise ValueError("richardson_levels must be >= 0")

    @property
    def magnitudes(self) -> tuple[float, ...]:
        return tuple(sorted({abs(x) for x in self.lambda_grid}, reverse=True))


def _stencil_nodes(config: DeformationConfig, order: int, at_lambda: float):
    """Coefficient map node -> weight whose dot product with f(node) estimates
    the order-th derivative at ``at_lambda``, after Richardson extrapolation.

    The coefficients sum to zero analytically, so estimators evaluate
    sum(c * (f(node) - f(center))) and a constant function differentiates to
    exactly 0.0.
    """
    mags = list(config.magnitudes)
    if order in (3, 4):
        scales = [h for h in mags if any(abs(2.0 * h - g) <= 1e-12 * g for g in mags)]
    else:
        scales = mags
    if not scales:
        raise ValueError(f"grid too small for derivative order {order}")
    levels = config.richardson_levels
    if levels is None:
        levels = len(scales) - 1
    if levels > len(scales) - 1:
        raise ValueError(
            f"richardson_levels={levels} needs {levels + 1} scales, "
            f"grid provides {len(scales)}"
        )
    scales = scales[len(scales) - (levels + 1):]
    rows = []
    for h in scales:
        coeffs: dict[float, float] = {}
        for off, c in _STENCILS[order].items():
            node = at_lambda + off * h
            coeffs[node] = coeffs.get(node, 0.0) + c / h**order
        rows.append(coeffs)
    for level in range(1, levels + 1):
        factor = 4.0**level
        nxt = []
        for i in range(1, len(rows)):
            combo: dict[float, float] = {}
            for node, c in rows[i].items():
                combo[node] = combo.get(node, 0.0) + factor * c / (factor - 1.0)
            for node, c in rows[i - 1].items():
                combo[node] = combo.get(node, 0.0) - c / (factor - 1.0)
            nxt.append(combo)
        rows = nxt
    final = rows[-1]
    final.setdefault(at_lambda, 0.0)
    return final


def _stencil_rows(values, nodes, coeffs, at_lambda) -> np.ndarray:
    """The stencil ``coeffs`` applied per row of ``values``, shape (rows,
    len(nodes)), taken at the sorted ``nodes``: sum(c * (f(node) - f(center)))
    per row."""
    c = np.array([coeffs.get(node, 0.0) for node in nodes])
    return (values - values[:, [nodes.index(at_lambda)]]) @ c


def fd_derivative(
    model,
    g,
    order,
    config=None,
    n_samples=10000,
    seed=0,
    *,
    at_lambda=0.0,
    workers=1,
    method="mc",
    n_nodes=64,
    budget=None,
) -> QuenchedEstimate:
    """Finite-difference derivative of the deformed expectation of ``g`` with
    respect to the deformation strength, evaluated at ``at_lambda``.

    Even orders 2 and 4 serve the identity checks; odd orders exist to
    demonstrate that odd derivatives vanish.  Under MC the same disorder
    draw is used at every grid node (common random numbers), and the stencil
    is applied per sample so the standard error propagates through it.
    """
    if order not in _STENCILS:
        raise ValueError(f"derivative order must be one of {sorted(_STENCILS)}")
    config = config or DeformationConfig()
    poly = _leg_free_polynomial(g)
    coeffs = _stencil_nodes(config, order, at_lambda)
    nodes = sorted(coeffs)
    evaluator = _PolyMoments(model, poly, budget)

    if method == "quadrature":
        _require_sk2(model)

        def combined(nodes_per_dim):
            values = [_sk2_poly_value(model, evaluator, x, nodes_per_dim) for x in nodes]
            return float(_stencil_rows(np.array([values]), nodes, coeffs, at_lambda)[0])

        value = combined(n_nodes)
        check = combined(2 * n_nodes)
        return QuenchedEstimate(
            value, 0.0, n_nodes, int(seed), "quadrature", truncation=abs(value - check)
        )
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")

    def fill(draws):
        values = evaluator.value_grid(_gibbs_grid(model, draws, nodes))
        return _stencil_rows(values, nodes, coeffs, at_lambda)[:, None]

    slots = _mc_slots(seed, n_samples, workers, (2, *model.coupling_shape), 1,
                      len(nodes) * model.n_configs, fill)
    mean, err = _column_stats(slots[:, 0])
    return QuenchedEstimate(mean, err, n_samples, int(seed), "mc")


# --------------------------------------------------------------------------
# Identity reports.

@dataclass(frozen=True)
class IdentityRow:
    label: str
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    diff: float
    diff_stderr: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one or more exact identities, estimated with shared
    randomness, plus the pass/fail verdict per row."""

    label: str
    model: ModelInstance | None
    graph: Multigraph | None
    n: int | None
    method: str
    samples: int
    seed: int
    lambda_grid: tuple[float, ...]
    rows: tuple[IdentityRow, ...]
    passed: bool
    wall_time_s: float


_MC_ABS_FLOOR = 1e-12  # roundoff guard when the CRN difference is exactly constant


def _crn_columns(lhs, rhs) -> np.ndarray:
    """Per-sample columns lhs, rhs, lhs - rhs of each identity row (the layout
    :func:`_mc_row` reads), from one (samples,) array or constant per side."""
    cols = np.broadcast_arrays(*lhs, *rhs)
    left, right = np.stack(cols[: len(lhs)], axis=1), np.stack(cols[len(lhs):], axis=1)
    return np.stack([left, right, left - right], axis=2).reshape(len(left), -1)


def _mc_row(label, slots, base) -> IdentityRow:
    lhs, lhs_err = _column_stats(slots[:, base])
    rhs, rhs_err = _column_stats(slots[:, base + 1])
    diff, diff_err = _column_stats(slots[:, base + 2])
    tol = max(3.0 * diff_err, _MC_ABS_FLOOR)
    return IdentityRow(
        label=label,
        lhs=lhs,
        lhs_stderr=lhs_err,
        rhs=rhs,
        rhs_stderr=rhs_err,
        diff=diff,
        diff_stderr=diff_err,
        tolerance=tol,
        passed=abs(diff) <= tol,
    )


def identity_check(
    model,
    g,
    n,
    n_samples=20000,
    seed=0,
    *,
    config=None,
    workers=1,
    method="mc",
    tol=1e-6,
    lemma_lambda=0.2,
    n_nodes=64,
    budget=None,
) -> IdentityReport:
    """Check that the order-2n derivative of the deformed expectation of ``g``
    at zero deformation equals (2n-1)!! times the quenched average of the
    n-fold stability polynomial.

    For n=1 the report also checks the first-derivative identity away from
    zero: d/dlam E_lam(g) = lam * E_lam(stability polynomial of g), by
    differencing around ``lemma_lambda`` (set it to None to skip).

    MC rows pass when |diff| is within 3 combined standard errors (computed
    from per-sample differences under common random numbers); quadrature rows
    pass when |diff| <= tol.
    """
    t0 = time.perf_counter()
    if n < 1:
        raise ValueError("n must be >= 1")
    config = config or DeformationConfig()
    gc = canonicalize(g)
    poly_g = _leg_free_polynomial(gc)
    dpoly = poly_g
    for _ in range(n):
        dpoly = big_delta(dpoly)
    const = float(double_factorial(2 * n - 1))
    include_lemma = n == 1 and lemma_lambda is not None
    main_label = f"d^{2 * n}/dlam^{2 * n} at 0 vs {double_factorial(2 * n - 1)} * E(Delta^{n} g)"

    lam0 = float(lemma_lambda) if include_lemma else 0.0
    lemma_label = f"d/dlam at {lam0} vs lam * E_lam(Delta g)"
    coeffs = _stencil_nodes(config, 2 * n, 0.0)
    coeffs_lem = _stencil_nodes(config, 1, lam0) if include_lemma else {}
    nodes = sorted(coeffs.keys() | coeffs_lem.keys())
    ev_g = _PolyMoments(model, poly_g, budget)
    ev_d = _PolyMoments(model, dpoly, budget)

    if method == "quadrature":
        _require_sk2(model)
        f = np.array([[_sk2_poly_value(model, ev_g, x, n_nodes) for x in nodes]])
        sides = [(main_label, _stencil_rows(f, nodes, coeffs, 0.0)[0],
                  const * _sk2_poly_value(model, ev_d, 0.0, n_nodes))]
        if include_lemma:
            sides.append((lemma_label, _stencil_rows(f, nodes, coeffs_lem, lam0)[0],
                          lam0 * _sk2_poly_value(model, ev_d, lam0, n_nodes)))
        rows = [
            IdentityRow(label, float(lhs), 0.0, rhs, 0.0, float(lhs - rhs), 0.0, tol,
                        bool(abs(lhs - rhs) <= tol))
            for label, lhs, rhs in sides
        ]
    elif method == "mc":
        at = [nodes.index(x) for x in ([0.0, lam0] if include_lemma else [0.0])]

        def fill(draws):
            weights = _gibbs_grid(model, draws, nodes)
            f = ev_g.value_grid(weights)
            d = ev_d.value_grid(weights[:, at])
            lhs = [_stencil_rows(f, nodes, coeffs, 0.0)]
            rhs = [const * d[:, 0]]
            if include_lemma:
                lhs.append(_stencil_rows(f, nodes, coeffs_lem, lam0))
                rhs.append(lam0 * d[:, 1])
            return _crn_columns(lhs, rhs)

        slots = _mc_slots(seed, n_samples, workers, (2, *model.coupling_shape),
                          6 if include_lemma else 3, len(nodes) * model.n_configs,
                          fill)
        rows = [_mc_row(main_label, slots, 0)]
        if include_lemma:
            rows.append(_mc_row(lemma_label, slots, 3))
    else:
        raise ValueError(f"unknown method {method!r}")

    return IdentityReport(
        label="stability-moment identity",
        model=model,
        graph=gc,
        n=n,
        method=method,
        samples=n_samples if method == "mc" else n_nodes,
        seed=int(seed),
        lambda_grid=config.lambda_grid,
        rows=tuple(rows),
        passed=all(r.passed for r in rows),
        wall_time_s=time.perf_counter() - t0,
    )


def wick_baseline_check(
    model,
    n_samples=20000,
    seed=0,
    *,
    workers=1,
    method="mc",
    tol=1e-8,
    n_nodes=64,
    budget=None,
) -> IdentityReport:
    """Check the two pairing baselines that tie Gaussian field moments to
    overlap moments: the squared first bracket against the two-replica
    overlap, and the three-bracket chain against the three-replica chain."""
    t0 = time.perf_counter()
    g12 = Multigraph(((1, 2, 1),), ())
    g12_23 = Multigraph(((1, 2, 1), (2, 3, 1)), ())
    ev2 = _PolyMoments(model, GraphPolynomial.monomial(g12), budget)
    ev3 = _PolyMoments(model, GraphPolynomial.monomial(g12_23), budget)
    label_a = "Av(<h>^2) vs E({1,2})"
    label_b = "Av(<h1><h1 h2><h2>) vs E({1,2}{2,3})"

    if method == "mc":

        def fill(draws):
            w = _softmax_last(model.beta * _neg_energy(model, draws[:, 0]))
            hv = _field_values(model, draws[:, 1:])
            b1, b2 = np.einsum("sc,skc->ks", w, hv)
            b12 = np.einsum("sc,sc,sc->s", w, hv[:, 0], hv[:, 1])
            return _crn_columns([b1 * b1, b1 * b12 * b2],
                                [ev2.value_grid(w), ev3.value_grid(w)])

        slots = _mc_slots(seed, n_samples, workers, (3, *model.coupling_shape), 6,
                          2 * model.n_configs, fill)
        rows = (_mc_row(label_a, slots, 0), _mc_row(label_b, slots, 3))
        samples = n_samples
    elif method == "quadrature":
        _require_sk2(model)
        weights, wq_u = _sk2_weight_grid(model, 0.0, n_nodes)
        s = model.spins[:, 0] * model.spins[:, 1]
        # Each field reduces to (K + v * s) / 2 with K, v independent N(0, 2);
        # the integrands are quadratic per auxiliary axis, so few nodes are exact.
        xa, wa = _gauss_hermite(8)
        kk, vv = np.meshgrid(2.0 * xa, 2.0 * xa, indexing="ij")
        hv_a = 0.5 * (kk.ravel()[:, None] + vv.ravel()[:, None] * s)  # (64, 4)
        wq_a = np.multiply.outer(wa, wa).ravel()
        bra = weights @ hv_a.T  # <h> per (u, aux) node
        lhs_a = float(np.sum(wq_u[:, None] * wq_a[None, :] * bra**2))
        rhs_a = float(np.sum(wq_u * ev2.value_grid(weights)))

        xb, wb = _gauss_hermite(6)
        kb, vb = np.meshgrid(2.0 * xb, 2.0 * xb, indexing="ij")
        hv_1 = 0.5 * (kb.ravel()[:, None] + vb.ravel()[:, None] * s)
        wq_b = np.multiply.outer(wb, wb).ravel()
        bra1 = weights @ hv_1.T  # (nu, A)
        bra2 = bra1  # same reduction for the second independent field
        cross = np.einsum("us,as,bs->uab", weights, hv_1, hv_1, optimize=True)
        prod = bra1[:, :, None] * cross * bra2[:, None, :]
        lhs_b = float(
            np.einsum("u,a,b,uab->", wq_u, wq_b, wq_b, prod, optimize=True)
        )
        rhs_b = float(np.sum(wq_u * ev3.value_grid(weights)))
        rows = (
            IdentityRow(label_a, lhs_a, 0.0, rhs_a, 0.0, lhs_a - rhs_a, 0.0, tol,
                        abs(lhs_a - rhs_a) <= tol),
            IdentityRow(label_b, lhs_b, 0.0, rhs_b, 0.0, lhs_b - rhs_b, 0.0, tol,
                        abs(lhs_b - rhs_b) <= tol),
        )
        samples = n_nodes
    else:
        raise ValueError(f"unknown method {method!r}")

    return IdentityReport(
        label="wick baselines",
        model=model,
        graph=None,
        n=None,
        method=method,
        samples=samples,
        seed=int(seed),
        lambda_grid=(),
        rows=rows,
        passed=all(r.passed for r in rows),
        wall_time_s=time.perf_counter() - t0,
    )


def gaussian_ibp_check(n_samples=20000, seed=0, *, workers=1) -> IdentityReport:
    """Gaussian integration by parts on a fixed two-field test family:
    E(h_l f) = sum_m c_{l,m} E(df/dh_m), with prescribed covariance and both
    sides estimated from the same draws."""
    t0 = time.perf_counter()
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    chol = np.linalg.cholesky(cov)
    lam = 0.3

    def ratio(h1, h2):
        e1 = np.exp(lam * h1)
        e2 = np.exp(lam * h2)
        d = 0.5 * (e1 + e2)
        f = e1 / d
        g2 = e2 / d
        return f, lam * f - 0.5 * lam * f * f, -0.5 * lam * f * g2

    family = (
        ("f = h1, l = 1", lambda h1, h2: (h1, 1.0, 0.0), 0),
        ("f = h1^2, l = 1", lambda h1, h2: (h1 * h1, 2.0 * h1, 0.0), 0),
        ("f = h1 h2, l = 2", lambda h1, h2: (h1 * h2, h2, h1), 1),
        ("f = exp ratio, l = 1", ratio, 0),
        ("f = exp ratio, l = 2", ratio, 1),
    )
    width = 3 * len(family)

    def fill(draws):
        h = draws @ chol.T
        lhs, rhs = [], []
        for _, func, l in family:
            f, d1, d2 = func(h[:, 0], h[:, 1])
            lhs.append(h[:, l] * f)
            rhs.append(cov[l, 0] * d1 + cov[l, 1] * d2)
        return _crn_columns(lhs, rhs)

    slots = _mc_slots(seed, n_samples, workers, (2,), width, width, fill)
    rows = tuple(
        _mc_row(label, slots, 3 * pos) for pos, (label, _, _) in enumerate(family)
    )
    return IdentityReport(
        label="gaussian integration by parts",
        model=None,
        graph=None,
        n=None,
        method="mc",
        samples=n_samples,
        seed=int(seed),
        lambda_grid=(),
        rows=rows,
        passed=all(r.passed for r in rows),
        wall_time_s=time.perf_counter() - t0,
    )
