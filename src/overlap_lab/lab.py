"""Small quenched spin systems: exact Gibbs sums over the configurations
modulo the global spin flip, Monte Carlo over the disorder, a Gauss-Hermite
oracle over each model's coupling sums, and finite-size identity checks
against the symbolic engine.

Both models share one formula.  ``ModelInstance.bonds`` lists the coupled
site pairs b = (i, j) and ``bond_products`` the products sigma_i sigma_j per
configuration, a (2^(N-1), |B|) matrix P.  Then -H = sum_b J_b sigma_i
sigma_j, the deformation field is the same sum over the field couplings
divided by sqrt(|B|), and the overlap kernel, their covariance, is P P^T /
|B|.

Every sum runs over the 2^(N-1) configurations whose last spin is +1, one of
each pair sigma, -sigma, and the Gibbs weights are normalized over them.
This is exact.  Everything the lab computes reads a configuration only
through its row of P: the energy, the field, the overlap entries and so
every replica contraction.  Each column sigma_i sigma_j is even under
sigma -> -sigma, so sigma and -sigma have one row, one Boltzmann factor and
one weight under the full measure on 2^N configurations.  In a sum over R
replicas, each full-space R-tuple is then one of 2^R tuples that flip some
replicas and give the same summand, and each weight of the quotient is
twice a full weight: the quotient's sum has 2^R times fewer tuples, each
weighted 2^R times more, and is the same number.  Nothing finer merges: the
bond graph of every model is connected (SK couples every pair, a periodic
lattice with its sides of 1 dropped is connected), so sigma_i sigma_j on
every bond fixes sigma up to its sign, and the rows of P are pairwise
distinct.

Conventions that the reproducibility contract depends on:

* Disorder sample ``i`` of a run with seed ``s`` uses the independent stream
  ``numpy.random.default_rng((s, i))`` and always draws the Hamiltonian
  couplings first, then the deformation-field couplings.  The lab reproduces
  those streams a block of samples at a time with array arithmetic
  (:mod:`overlap_lab.streams`: the seeding, PCG64 and numpy's ziggurat), and
  redraws the few samples the arrays leave open (the ziggurat's tail, a
  wedge test too close to call) with numpy's own ``Generator``.  Tier-1
  tests (``tests/test_mc_engine.py``) hold the streams equal bit for bit.
* Every disorder average runs through one chunked evaluator.  A rule, Monte
  Carlo draws or a Gauss-Hermite grid, yields its nodes in chunks whose
  length follows from the model and the number of deformation nodes.
  Per-node results land in preallocated slots; Monte Carlo reduces them
  with exact summation in index order, quadrature with numpy's pairwise sum
  of the weighted column, which calls no BLAS.  So estimates are
  bit-identical across reruns, and across BLAS thread counts, at a fixed
  chunk size.  Batched arithmetic rounds differently from a
  one-sample-at-a-time evaluation, in the last bits (about 1e-14 relative,
  magnified by finite-difference stencils).
* A polynomial's replica contractions run as one step program per chunk:
  each distinct product of weights and overlap powers is computed once and
  shared by every term that needs it, on one row-slice length for the whole
  polynomial.  The slicing depends only on the model and the polynomial, so
  it does not disturb the bit-identity above.  Contraction plans, step
  programs, Gauss-Hermite rules and stencils depend on shapes, node counts
  and the polynomial or grid only, not on beta; each is built once per
  process and shared read-only.
* Whenever an identity compares two estimates, both sides are computed from
  the same draws within each sample (common random numbers).
* On a grid with field nodes, what does not read the field (the measure at
  lambda = 0 and its moments) is computed once per Hamiltonian node and read
  by index on every field node.  The nodes run in the chunks of the unsplit
  run, whose bits the results keep on every model the tests check.  A Monte
  Carlo sample draws its own field and runs whole.
* A rule whose nodes map onto themselves, weights included, when the field
  couplings change sign (``mirror_symmetric``: every Gauss-Hermite grid)
  averages any function of the lambda-tilted measure to one value at
  lambda and -lambda.  On such a rule the finite-difference stencils run
  folded onto |lambda|: each negative node's weight moves onto its mirror,
  and the center and the rhs points go to their magnitudes.  The fold is
  exact for the average; its sums run in another order than the signed
  ones, so folded quadrature identities differ from unfolded ones in the
  last bits.  Monte Carlo draws are no symmetric set and keep every signed
  node.
* A report holds what was computed, in one form: the quadrature grid, which
  draws nothing, reports seed 0; a deformation grid is stored sorted; a
  model's beta of -0.0 is 0.0; an EA lattice drops its sides of 1, which add
  no bond.
* One budget bounds what the lab runs: ``LAB_WORK_BUDGET`` units of
  floating-point work (multiply-adds) and ``LAB_MEMORY_BUDGET`` bytes.  A
  model is refused on its site count, when its 2^(N-1) x 2^(N-1) overlap
  cannot fit (14 sites fit, 15 do not); a run is refused when its nodes
  times their work per node, or its arrays, result slots and grid weights,
  are over the budget.  Both checks come before anything of that size is
  built or any node is drawn, so the quadrature oracle runs on any model
  and grid the budget admits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product
from types import MappingProxyType

import numpy as np

from .graphs import GraphPolynomial, Multigraph, _integer, canonicalize
from .operators import BudgetError, _as_poly, big_delta, double_factorial

__all__ = [
    "LAB_MEMORY_BUDGET",
    "LAB_WORK_BUDGET",
    "MAX_MC_SAMPLES",
    "MAX_QUADRATURE_NODES",
    "ModelInstance",
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

#: Most units of floating-point work (one per multiply-add) in one run.
LAB_WORK_BUDGET = 2**39

#: Most bytes one model or run may hold.
LAB_MEMORY_BUDGET = 2**30


def _check_budget(what: str, units: int, nbytes: int):
    """Refuse ``what`` if it needs more than ``LAB_WORK_BUDGET`` units of
    work or ``LAB_MEMORY_BUDGET`` bytes, naming each size as a power of two.
    Callers count before they build anything of that size."""
    if units > LAB_WORK_BUDGET or nbytes > LAB_MEMORY_BUDGET:
        units, nbytes = (f"2^{math.log2(max(x, 1)):.1f}" for x in (units, nbytes))
        raise BudgetError(f"{what} needs at least {units} work units and {nbytes} bytes, "
                          "over LAB_WORK_BUDGET or LAB_MEMORY_BUDGET")


@dataclass(frozen=True)
class ModelInstance:
    """An SK or EA system small enough for exact configuration sums.

    ``kind`` is ``"sk"`` (fully coupled, N^2 Gaussian couplings including the
    diagonal and both orders) or ``"ea"`` (nearest-neighbor bonds on a
    periodic lattice, one Gaussian per bond).  Either way -H = sum_b J_b
    sigma_i sigma_j over the pairs b = (i, j) of :attr:`bonds`, and the
    overlap is P P^T / |B| with P = :attr:`bond_products`.  Use
    :func:`sk_model` / :func:`ea_model` to construct validated instances.
    """

    kind: str
    beta: float
    n_sites: int
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_sites", _integer("n_sites", self.n_sites))
        # The overlap holds 4^(N-1) floats, built with at least one unit
        # each.  N is capped just past the budget's bit length first, so that
        # a huge N is refused without forming 2^N.
        n, k = self.n_sites - 1, min(self.n_sites, LAB_MEMORY_BUDGET.bit_length()) - 1
        _check_budget(f"{self.kind} model with a 2^{n} x 2^{n} overlap", 4**k, 8 * 4**k)

    @property
    def n_configs(self) -> int:
        """2^(N-1): one configuration of each pair sigma, -sigma."""
        return 2 ** (self.n_sites - 1)

    @cached_property
    def spins(self) -> np.ndarray:
        """The configurations whose last spin is +1, one of each pair sigma,
        -sigma, as a (2^(N-1), N) matrix of +-1."""
        bits = (np.arange(self.n_configs)[:, None] >> np.arange(self.n_sites)) & 1
        return 1.0 - 2.0 * bits.astype(np.float64)

    @cached_property
    def bonds(self) -> tuple[tuple[int, int], ...]:
        """Coupled site pairs (i, j) in the order of the flattened couplings: for
        SK every ordered pair, the diagonal included, in the C order of J; for
        EA the periodic nearest-neighbor pairs, i < j, sorted and unique."""
        if self.kind == "sk":
            return tuple(product(range(self.n_sites), repeat=2))
        sites = np.arange(self.n_sites).reshape(self.dims)
        # sites are numbered in C order, so nxt[i] is the wrapped neighbor of
        # site i one step along an axis
        steps = [np.roll(sites, -1, axis).ravel().tolist() for axis in range(sites.ndim)]
        pairs = {tuple(sorted(p)) for nxt in steps for p in enumerate(nxt) if p[0] != p[1]}
        return tuple(sorted(pairs))

    @cached_property
    def bond_products(self) -> np.ndarray:
        """sigma_i * sigma_j per configuration of :attr:`spins` and bond,
        shape (2^(N-1), |B|).  Its rows are pairwise distinct: the bond
        graph is connected, so only sigma and -sigma share a row."""
        left, right = np.array(self.bonds).T
        return self.spins[:, left] * self.spins[:, right]

    @cached_property
    def overlap(self) -> np.ndarray:
        """Pairwise covariance kernel over configurations, P P^T / |B|.

        SK: squared site overlap in [0, 1]; EA: link overlap in [-1, 1].
        The diagonal is exactly one in both cases.
        """
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
    n_spins = _integer("n_spins", n_spins)
    if n_spins < 2:
        raise ValueError(f"SK needs at least 2 spins, got {n_spins}")
    _check_nonnegative("beta", beta)
    return ModelInstance(kind="sk", beta=float(beta) + 0.0, n_sites=n_spins)  # no -0.0


def ea_model(dims, beta: float) -> ModelInstance:
    dims = tuple(_integer("dims", d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"lattice dimensions must be positive, got {dims}")
    # a side of 1 adds no bond and leaves the sites' C-order numbering alone
    dims = tuple(d for d in dims if d > 1) or dims
    _check_nonnegative("beta", beta)
    model = ModelInstance(kind="ea", beta=float(beta) + 0.0, n_sites=math.prod(dims), dims=dims)
    if not model.bonds:
        raise ValueError(f"lattice {dims} has no nearest-neighbor bonds")
    return model


def _check_finite(name: str, value: float):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_nonnegative(name: str, value: float):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _neg_energy(model: ModelInstance, couplings: np.ndarray) -> np.ndarray:
    """-H = sum_b J_b sigma_i sigma_j per configuration; leading axes of
    ``couplings`` are batch axes."""
    batch = couplings.shape[: couplings.ndim - len(model.coupling_shape)]
    return couplings.reshape(*batch, -1) @ model.bond_products.T


def _field_values(model: ModelInstance, field_couplings: np.ndarray) -> np.ndarray:
    return _neg_energy(model, field_couplings) / math.sqrt(len(model.bonds))


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """One Gibbs measure per row of the last axis, each finite and summing
    to one within 1e-14.

    The max and the exponential run config-major, over the (configurations,
    rows) array ``x.reshape(-1, nc).T``: a view when ``x`` is a transposed
    config-major array, as :func:`_gibbs_grid` passes it, a copy otherwise.
    So they run over long contiguous rows, not one short row at a time; the
    max is exact and the exponential elementwise.

    Each measure is then normalized, and checked, by numpy's own sum over
    its row, so both sums add in one order and no sum goes through BLAS.
    numpy adds a contiguous row of 8 values or more pairwise, which errs
    O(u log nc), against O(u nc) in sequence; so from 8 configurations up
    the rows are made node-major and C-contiguous, as the result is anyway.
    Below 8 numpy adds a row in sequence, the order in which it sums the
    config-major columns of the transposed view, so that view is summed in
    place.  Either way the weights keep the bits of ``e / e.sum(axis=-1,
    keepdims=True)``.  The result is C-contiguous: the matmuls downstream
    round by operand layout."""
    nc = x.shape[-1]
    z = np.ascontiguousarray(x.reshape(-1, nc).T)
    w = z - z.max(axis=0)
    np.exp(w, out=w)
    w = np.ascontiguousarray(w.T) if nc >= 8 else w.T
    w /= w.sum(axis=-1, keepdims=True)
    # Every normalized weight is in [0, 1] or NaN (an exponent of NaN or +inf,
    # or a row of -inf only), and a NaN weight makes its row's sum NaN, so
    # the sum's check alone refuses every measure that is not finite.
    if not (np.abs(w.sum(axis=-1) - 1.0) < 1e-14).all():
        raise ValueError("Gibbs weights are not finite or do not sum to one")
    return np.ascontiguousarray(w).reshape(x.shape)


# perfbench/tracer.py wraps this name to count Gibbs measures.
_softmax = _softmax_last


def gibbs_weights(model, couplings, lam=0.0, field_couplings=None) -> np.ndarray:
    """Normalized Gibbs weights over the 2^(N-1) configurations of
    ``model.spins``, one of each pair sigma, -sigma, optionally tilted by
    ``exp(lam * h)`` with the field built from ``field_couplings``.

    The full measure on all 2^N configurations puts half of each weight on
    sigma and half on -sigma.  Log-sum-exp stabilization makes overflow
    impossible; the result is nonnegative and sums to one within 1e-14.
    """
    x = model.beta * _neg_energy(model, couplings)
    if field_couplings is not None:
        x = x + lam * _field_values(model, field_couplings)
    elif lam != 0.0:
        raise ValueError("a deformed measure needs field couplings")
    return _softmax_last(x)


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

def _leg_free_polynomial(p) -> GraphPolynomial:
    """``p`` as a polynomial the lab evaluates: leg-free, with every
    coefficient within the float range."""
    poly = _as_poly(p)
    for g, c in poly.items():
        if not g.is_leg_free():
            raise ValueError(f"expectations are defined for leg-free input, got {g!r}")
        try:
            float(c)
        except OverflowError:
            raise ValueError(f"the coefficient of {g!r}, of {c.bit_length()} bits, "
                             "is outside the float range") from None
    return poly


class _PolyMoments:
    """Contractions for the terms of a leg-free polynomial against batches of
    Gibbs weights, run as one shared step program.

    Each term with support {1..R} is the contraction of R copies of the
    weights against the fixed product of edge-overlap matrices.  Its greedy
    contraction order depends only on the number of configurations and the
    term, so it is found on the shapes of a single sample, once per compiled
    program, with intermediates of at most three replica indices (the
    4-cycle needs two, K4 three).  The steps of all terms then compile into
    one program over registers: the weights, the model's overlap powers,
    and one register per distinct step.  A step whose input registers and
    subscripts, with letters renamed in order of first appearance, match an
    earlier step's reuses that step's register, so each distinct product is
    computed once per row slice and terms share it bit for bit.  The program
    runs on weights of shape (..., n_configs) in slices of the smallest
    per-term row count, which keeps every intermediate within
    ``_CHUNK_FLOATS`` unless one row exceeds it (K4 on 32 configurations),
    and drops each register after its last use.

    The program depends on the number of configurations and the polynomial
    only, not on beta or the couplings, so it is compiled once per process
    (:func:`_compiled`) and shared, read-only, by every model of that size:
    a beta sweep builds it once.  Only the overlap-power registers are the
    model's own, built on its first evaluation, power 1 being the model's
    overlap itself.

    The program also gives the evaluator's cost, for the lab budget:
    ``flops`` per weight row, n_configs to the number of letters in a
    step's inputs for each distinct step, ``powers``, the overlap powers it
    holds, and ``row_bytes``, its widest register on one row slice.
    """

    def __init__(self, model, poly):
        self._model = model
        (self._held, self.powers, self._program, self._terms, self._constant,
         self.flops, self._rows, self.row_bytes) = _compiled(model.n_configs, poly)

    @cached_property
    def _registers(self) -> list:
        overlap = self._model.overlap if self.powers else None
        return [None if m is None else overlap if m == 1 else overlap**m for m in self._held]

    def value_grid(self, weights: np.ndarray) -> np.ndarray:
        """Batched evaluation: ``weights`` has shape (..., n_configs)."""
        flat = weights.reshape(-1, weights.shape[-1])
        total = np.full(len(flat), self._constant)
        rows = self._rows
        for lo in range(0, len(flat), rows):
            regs = list(self._registers)
            regs[0] = flat[lo:lo + rows]
            for dst, srcs, kernel, dead in self._program:
                regs[dst] = _step(kernel, [regs[k] for k in srcs])
                for k in dead:
                    regs[k] = None
            part = total[lo:lo + rows]
            for coeff, k in self._terms:
                part += coeff * regs[k]
        return total.reshape(weights.shape[:-1])


@lru_cache(maxsize=None)
def _compiled(nc, poly):
    """The step program of :class:`_PolyMoments` for ``poly`` on ``nc``
    configurations, as the tuple its constructor unpacks: the registers'
    overlap powers (None for the weights and the steps), the register of
    each overlap power, the steps, the terms (coefficient, result register),
    the constant term, flops per row, rows per slice and the widest
    register's bytes.  It reads shapes only, so it is built once per
    process; callers treat it as read-only."""
    held: list = [None]  # a register's overlap power, or None; 0 holds the weights
    powers: dict[int, int] = {}  # overlap power -> its register
    shared: dict[tuple, int] = {}  # canonical step -> its register
    program = []  # (register, input registers, kernel)
    terms = []  # (coeff, result register)
    constant = 0.0
    flops, widest, rows = 0, 0, []
    for g, coeff in poly.items():
        r = len(g.support)
        if r == 0:
            constant += float(coeff)
            continue
        steps, term_rows = _term_plan(nc, g)
        rows.append(term_rows)
        operands = [0] * r
        for _, _, m in g.edges:
            if m not in powers:
                powers[m] = len(held)
                held.append(m)
            operands.append(powers[m])
        for taken, inputs, out in steps:
            srcs = tuple(operands.pop(k) for k in taken)
            key = (srcs, *_renamed(inputs, out))
            if key not in shared:
                shared[key] = len(held)
                held.append(None)
                program.append((shared[key], srcs, _kernel(*key[1:])))
                flops += nc ** len({c for sub in key[1] for c in sub if c.isalpha()})
                widest = max(widest, nc ** (len(key[2]) - 3))
            operands.append(shared[key])
        terms.append((float(coeff), operands[0]))
    # a step's register is dropped after its last reader, unless a term reads
    # it at the end of the slice
    kept = {k for _, k in terms} | set(powers.values()) | {0}
    last = {k: pos for pos, (_, srcs, _) in enumerate(program) for k in srcs}
    program = tuple(
        (dst, srcs, kernel, tuple(k for k in set(srcs) - kept if last[k] == pos))
        for pos, (dst, srcs, kernel) in enumerate(program)
    )
    slice_rows = min(rows, default=_CHUNK_FLOATS)
    return (tuple(held), powers, program, tuple(terms), constant, flops, slice_rows,
            8 * slice_rows * widest)


def _term_plan(nc, g):
    """Contraction steps of the term ``g`` on ``nc`` configurations, in the
    form of :func:`_plan`, and the rows per slice that keep its largest
    intermediate within ``_CHUNK_FLOATS``.  Depends on shapes only."""
    r = len(g.support)
    letters = [chr(ord("a") + t) for t in range(r)]
    subs = [letters[i - 1] + letters[j - 1] for i, j, _ in g.edges]
    path = np.einsum_path(
        ",".join(letters + subs) + "->",
        *([np.empty(nc)] * r + [np.empty((nc, nc))] * len(subs)),
        optimize=("greedy", nc**3),
    )[0][1:]
    steps = _plan(["..." + x for x in letters] + subs, path)
    peak = max(nc ** (len(out) - 3) for _, _, out in steps)
    return steps, max(1, _CHUNK_FLOATS // max(peak, nc))


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
        steps.append((tuple(taken), tuple(inputs), subs[-1]))
    return tuple(steps)


def _renamed(inputs, out):
    """A step's input and result subscripts with letters renamed a, b, ... in
    order of first appearance."""
    names: dict[str, str] = {}

    def rename(sub):
        return "".join(c if c == "." else names.setdefault(c, chr(ord("a") + len(names)))
                       for c in sub)

    return tuple(rename(sub) for sub in inputs), rename(out)


def _kernel(inputs, out):
    """How :func:`_step` runs a step.  A batched operand times an overlap
    matrix over one shared index is one matmul: with numpy 2.4,
    ``np.einsum(..., optimize=path)`` took 15 ms per chunk on the EA ring of
    6 (transposed matmul operands), and einsum's own loop is 10-15 times
    slower than matmul on these steps.  Such a step gives (batched operand
    position, shared axis, result axis of the matrix's other index), both
    axes counted from the end; any other step gives its einsum subscripts.
    Every overlap power is symmetric bit for bit (P P^T has integer entries,
    exact in float64, and the division by |B| and the powers act
    elementwise), so the matrix is never transposed."""
    fixed = [k for k, sub in enumerate(inputs) if not sub.startswith("...")]
    if len(inputs) == 2 and len(fixed) == 1:
        m, b = inputs[fixed[0]], 1 - fixed[0]
        x, o = inputs[b][3:], out[3:]
        shared = set(x) & set(m)
        if len(shared) == 1:
            (s,) = shared
            t = m.replace(s, "")
            if t in o and o.replace(t, "") == x.replace(s, ""):
                return b, x.index(s) - len(x), o.index(t) - len(o)
    return ",".join(inputs) + "->" + out


def _step(kernel, args) -> np.ndarray:
    if isinstance(kernel, str):
        return np.einsum(kernel, *args)
    b, src, dst = kernel
    a = args[b] if src == -1 else np.moveaxis(args[b], src, -1)
    mat = args[1 - b]
    y = a.reshape(-1, a.shape[-1]) @ mat
    y = y.reshape(a.shape[:-1] + mat.shape[1:])
    return y if dst == -1 else np.moveaxis(y, -1, dst)


def replica_moment(model, couplings, lam, field_couplings, g) -> float:
    """Thermal replica average of one leg-free monomial under the (possibly
    deformed) Gibbs measure for a single disorder realization.

    Isomorphic monomials share a canonical key, so they produce bit-identical
    values.
    """
    evaluator = _PolyMoments(model, _leg_free_polynomial(g))
    _check_run(f"term {g!r}", model, 1, 1 + (field_couplings is not None), 0, [(evaluator, 1)])
    weights = gibbs_weights(model, couplings, lam, field_couplings)
    return float(evaluator.value_grid(weights[None])[0])


# --------------------------------------------------------------------------
# Disorder averages.  A rule yields weighted disorder nodes, in chunks of
# draws laid out as (nodes, blocks, *coupling_shape): block 0 holds the
# Hamiltonian couplings, the next blocks the field couplings.  One evaluator
# runs every estimator over any rule.

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


#: Floats in one chunk's widest per-node block, the (nodes, lambda nodes,
#: 2^(N-1)) Gibbs weights for the models, and in one row slice of a replica
#: contraction's intermediates; chunk and slice lengths follow from it, so
#: memory stays flat in the node count.
_CHUNK_FLOATS = 2**14

#: Most Gauss-Hermite nodes on one axis of a quadrature grid, the doubled
#: grid of a truncation estimate included.  Above about 360 nodes numpy's
#: ``hermgauss`` returns NaN weights (its smallest ones underflow).
MAX_QUADRATURE_NODES = 256

#: Most Monte Carlo samples in one run: each sample index enters the seeding
#: of its stream as one 32-bit word.
MAX_MC_SAMPLES = 2**32


#: Nodes per field axis of the baselines: their brackets are quadratic in each
#: block's couplings, which two Gauss-Hermite nodes per axis integrate exactly.
_BASELINE_FIELD_NODES = 2


@lru_cache(maxsize=None)
def _hermgauss(n):
    """numpy's n-node Gauss-Hermite (nodes, weights), built once per process
    and read-only, since every quadrature estimate shares it."""
    rule = np.polynomial.hermite.hermgauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


class _GaussHermite:
    """Tensor Gauss-Hermite grid over the coupling sums of ``model``.

    Bonds with equal columns of ``bond_products`` enter every measure only
    through the sum of their couplings, so each distinct column is one
    N(0, count) axis over its ``count`` bonds, its nodes on the first of
    them in C order, the others zero.  Per draw block, ``blocks`` says how
    it enters: ``"exponent"`` (a Gibbs exponent, whose constant column
    cancels; ``n_nodes`` per axis), ``"bracket"`` (a baseline's field
    bracket; ``_BASELINE_FIELD_NODES``) or None (not read; no axis).
    ``axes`` maps each axis's (block, *coupling index) to (count, nodes), by
    block, then by first bond.

    The Hamiltonian block's axes come first, so node t pairs node t //
    ``field_nodes`` of :attr:`hamiltonian`, the grid of those axes alone,
    with field node t % ``field_nodes``, ``field_nodes`` being the node
    count of the other blocks' axes.  What does not read the field, the
    Gibbs measure at lambda = 0 and its moments, then runs once per
    Hamiltonian node (:func:`_evaluate`'s ``base``).

    The grid draws nothing, so its results report seed 0 whatever seed a
    caller was given.  Its ``weights`` (``weight_columns``) are built on the
    first ``stats``, after the budget check that counts them.  ``stats``
    sums the weighted column with numpy's own pairwise sum, not a BLAS dot,
    whose split over threads would move the last bits with the thread
    count.  Each axis rule is mirror-symmetric
    bit for bit (numpy symmetrizes its nodes and weights), so the grid maps
    onto itself, weights included, when the field couplings change sign;
    ``mirror_symmetric`` lets the stencils fold onto |lambda|
    (:func:`_stencil_plan`)."""

    method = "quadrature"
    seed = 0
    mirror_symmetric = True
    weight_columns = 1
    fixed_tolerance = True  # identity rows pass at the caller's tol

    def __init__(self, model, blocks, n_nodes):
        n_nodes = _integer("n_nodes", n_nodes)
        if n_nodes < 1:
            raise ValueError(f"quadrature needs at least 1 node per axis, got {n_nodes}")
        columns = {}
        for b, col in enumerate(model.bond_products.T):
            columns.setdefault(col.tobytes(), []).append(b)
        constant = np.ones(model.n_configs).tobytes()
        self.axes = {(k, *map(int, np.unravel_index(bonds[0], model.coupling_shape))):
                     (len(bonds), n_nodes if role == "exponent" else _BASELINE_FIELD_NODES)
                     for k, role in enumerate(blocks) for key, bonds in columns.items()
                     if role == "bracket" or role == "exponent" and key != constant}
        self._shape = tuple(n for _, n in self.axes.values())
        if max(self._shape) > MAX_QUADRATURE_NODES:
            raise BudgetError(
                f"a {'x'.join(map(str, self._shape))} quadrature grid exceeds "
                f"the bound of {MAX_QUADRATURE_NODES} nodes per axis"
            )
        self.size = math.prod(self._shape)
        self._model, self._blocks, self.samples = model, blocks, n_nodes
        self._values = [math.sqrt(2 * c) * _hermgauss(n)[0] for c, n in self.axes.values()]

    @cached_property
    def weights(self) -> np.ndarray:
        axis_weights = [_hermgauss(n)[1] / math.sqrt(math.pi) for n in self._shape]
        return reduce(np.multiply.outer, axis_weights).ravel()

    @property
    def field_nodes(self) -> int:
        return math.prod(n for (k, *_), (_, n) in self.axes.items() if k)

    @cached_property
    def hamiltonian(self):
        """The grid over the Hamiltonian block's axes alone; its weights are
        never built."""
        return _GaussHermite(self._model, self._blocks[:1], self.samples)

    def draws(self, lo, hi, shape) -> np.ndarray:
        out = np.zeros((hi - lo, *shape))
        idx = np.unravel_index(np.arange(lo, hi), self._shape)
        for pos, x, k in zip(self.axes, self._values, idx):
            out[(slice(None), *pos)] = x[k]
        return out

    def stats(self, col) -> tuple[float, float]:
        return float(np.add.reduce(self.weights * col)), 0.0

    def tolerance(self, diff_err, tol) -> float:
        return tol

    def refined(self):
        return _GaussHermite(self._model, self._blocks, 2 * self.samples)


def _rule(method, model, n_samples, seed, n_nodes, blocks=("exponent", "exponent")):
    if method == "mc":
        from .streams import _MonteCarlo  # loaded here, so that commands drawing nothing skip it
        return _MonteCarlo(n_samples, seed)
    if method == "quadrature":
        return _GaussHermite(model, blocks, n_nodes)
    raise ValueError(f"unknown method {method!r}")


def _check_run(what, model, nodes, blocks, width, uses, held=0, pre=None):
    """Refuse a run over the lab budget: ``nodes`` nodes on ``model`` (None
    for none), each drawing ``blocks`` coupling blocks, passing weight rows
    through evaluators, ``uses`` being (evaluator, rows per node) pairs, and
    holding ``width`` floats per node (result slots and rule weights), beside
    ``held`` floats that an earlier run keeps.  ``pre``, (nodes, width,
    uses), is a run on the Hamiltonian nodes alone, one block each, whose
    rows the run reads: its work adds, and its rows are held.  Work per
    node: the energy and field products and each evaluator's program per
    row.  Bytes: the model's arrays, each overlap power once, each
    evaluator's widest register, the columns with one more for a column's
    spread or weighted copy, and the held floats."""
    runs = [(nodes, blocks, uses)]
    if pre is not None:
        runs.append((pre[0], 1, pre[2]))
        held += pre[0] * pre[1]
    every = [use for _, _, run_uses in runs for use in run_uses]
    units = sum(n * sum(rows * ev.flops for ev, rows in run_uses) for n, _, run_uses in runs)
    nbytes = sum(ev.row_bytes for ev, _ in every) + 8 * nodes * (width + 1) + 8 * held
    if model is not None:
        nc, nb = model.n_configs, len(model.bonds)
        powers = {1}.union(*(ev.powers for ev, _ in every))
        units += sum(n * b for n, b, _ in runs) * nc * nb
        nbytes += 8 * nc * (model.n_sites + nb + nc * len(powers))
        what += f" on {model.describe()}"
    _check_budget(what, units, nbytes)


def _evaluate(rule, blocks, width, per_node, fill, model=None, uses=(), base=None) -> np.ndarray:
    """Per-node result columns, shape (rule.size, width).

    Each node draws ``blocks`` blocks of ``model``'s couplings (of one
    coupling each without a model).  The run is refused first if it is over
    the lab budget (:func:`_check_run`, which takes ``uses``).  Nodes run in
    chunks of ``_CHUNK_FLOATS // per_node``; ``fill(draws)`` turns a chunk's
    (nodes, blocks, *coupling_shape) draws into its (nodes, width) rows.

    ``base``, (width, per_node, fill, uses) for a rule with field nodes
    (``rule.field_nodes`` > 1), splits off what does not read the field: its
    fill turns (nodes, 1, *coupling_shape) draws of ``rule.hamiltonian``
    into rows once per Hamiltonian node, before the rule's nodes run, and
    ``fill(draws, rows)`` then gets the row of each node's Hamiltonian node.
    Both runs count in the one budget check.  numpy's floating-point
    warnings are off: an exponent that overflows is refused by
    :func:`_softmax_last`'s check, and any other value that is not finite
    here.
    """
    _check_run(f"{rule.size} {rule.method} nodes", model, rule.size, blocks,
               width + rule.weight_columns, uses, pre=_pre_run(rule, base))
    with np.errstate(all="ignore"):
        rows = None if base is None else _run(rule.hamiltonian, 1, *base[:3], model)
        return _run(rule, blocks, width, per_node, fill, model, rows)


def _pre_run(rule, base):
    """The Hamiltonian pre-run of :func:`_evaluate`'s ``base`` on ``rule``,
    as :func:`_check_run` takes it."""
    return None if base is None else (rule.hamiltonian.size, base[0], base[3])


def _run(rule, blocks, width, per_node, fill, model, base_rows=None) -> np.ndarray:
    """:func:`_evaluate`'s chunks on ``rule``, unchecked; with ``base_rows``
    each node also reads the row of its Hamiltonian node."""
    draw_shape = (blocks, *(() if model is None else model.coupling_shape))
    slots = np.empty((rule.size, width), dtype=np.float64)
    chunk, field = max(1, _CHUNK_FLOATS // per_node), rule.field_nodes
    for lo in range(0, rule.size, chunk):
        rows = slots[lo:lo + chunk]
        base = () if base_rows is None else (base_rows[np.arange(lo, lo + len(rows)) // field],)
        # no name holds the draws, so they are freed before the next chunk's
        rows[...] = fill(rule.draws(lo, lo + len(rows), draw_shape), *base)
        if not np.isfinite(rows).all():
            raise ValueError("a disorder node gives a value that is not finite")
    return slots


def _estimate(model, rule, per_node, fill, uses, base=None) -> QuenchedEstimate:
    """The rule's average of the one column ``fill`` computes, with the
    change under the doubled grid as truncation where the rule has one.
    ``base`` is :func:`_evaluate`'s."""
    check = rule.refined()  # built, or refused, before any work
    if check is not None:  # the larger run, beside the base grid's weights:
        # checked before either is evaluated
        _check_run(f"{check.size} {check.method} nodes", model, check.size, 2,
                   1 + check.weight_columns, uses, held=rule.size * rule.weight_columns,
                   pre=_pre_run(check, base))

    def mean_err(r):
        return r.stats(_evaluate(r, 2, 1, per_node, fill, model, uses, base)[:, 0])

    mean, err = mean_err(rule)
    truncation = None if check is None else abs(mean - mean_err(check)[0])
    return QuenchedEstimate(mean, err, rule.samples, rule.seed, rule.method, truncation)


def _gibbs_grid(model, draws, lams) -> np.ndarray:
    """(nodes, len(lams), 2^(N-1)) Gibbs weights for draws of shape (nodes,
    2, *coupling_shape): Hamiltonian couplings, then field couplings.  The
    exponents are laid out config-major, (2^(N-1), nodes, len(lams)), for
    :func:`_softmax_last`."""
    x = np.ascontiguousarray((model.beta * _neg_energy(model, draws[:, 0])).T)
    h = np.ascontiguousarray(_field_values(model, draws[:, 1]).T)
    z = h[:, :, None] * np.asarray(lams)
    z += x[:, :, None]
    return _softmax_last(z.transpose(1, 2, 0))


def _deformed(model, p, lam, rule, antithetic_h) -> QuenchedEstimate:
    _check_finite("lam", lam)
    evaluator = _PolyMoments(model, _leg_free_polynomial(p))

    def fill(draws):
        if antithetic_h:
            draws[:, 1] *= -1.0
        return evaluator.value_grid(_gibbs_grid(model, draws, [lam]))

    return _estimate(model, rule, model.n_configs, fill, [(evaluator, 1)])


def deformed_expectation(
    model,
    p,
    lam,
    n_samples,
    seed,
    *,
    antithetic_h=False,
) -> QuenchedEstimate:
    """Monte Carlo estimate of the deformed quenched expectation of ``p``.

    ``antithetic_h=True`` flips the sign of the field couplings in every
    sample; combined with ``-lam`` this reproduces the ``+lam`` estimator
    bit-exactly, the estimator-level statement that expectations are even in
    the deformation strength.
    """
    rule = _rule("mc", model, n_samples, seed, None)
    return _deformed(model, p, lam, rule, antithetic_h)


def quenched_expectation(model, p, n_samples, seed) -> QuenchedEstimate:
    """Undeformed quenched expectation; the lam=0 special case of
    :func:`deformed_expectation` (same code path, same random streams)."""
    return deformed_expectation(model, p, 0.0, n_samples, seed)


def stability_deviation(model, g, n_samples, seed) -> QuenchedEstimate:
    """Quenched average of the stability polynomial of ``g``.

    This is the quantity whose exact vanishing characterizes stochastic
    stability; at finite size it is reported as a deviation, never asserted
    to be zero.
    """
    return quenched_expectation(model, big_delta(_as_poly(g)), n_samples, seed)


def quadrature_expectation(model, p, lam=0.0, n_nodes=64) -> QuenchedEstimate:
    """Deterministic disorder average on any Gauss-Hermite grid the lab
    budget admits (:class:`_GaussHermite`), through the same evaluator as
    the Monte Carlo estimators.  At ``lam=0`` the field has no axis.

    The reported truncation bound is the change under doubling the node
    count; stderr is zero by construction.
    """
    rule = _rule("quadrature", model, None, 0, n_nodes, ("exponent", "exponent" if lam else None))
    return _deformed(model, p, lam, rule, False)

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
    """Symmetric deformation grid for the finite-difference stencils.

    Magnitudes must form a halving chain (each next one is half the
    previous), which is what the Richardson table assumes.  The center 0 is
    implicit.  Every stencil extrapolates over all the scales it can use.
    The grid is stored sorted and without repeats, so every spelling of one
    grid gives one config.
    """

    lambda_grid: tuple[float, ...] = (-0.2, -0.1, -0.05, 0.05, 0.1, 0.2)

    def __post_init__(self):
        grid = tuple(float(x) for x in self.lambda_grid)
        object.__setattr__(self, "lambda_grid", grid)
        if not grid:
            raise ValueError("lambda grid is empty")
        vals = set(grid)
        for lam in grid:
            _check_finite("lambda_grid", lam)
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
        object.__setattr__(self, "lambda_grid", tuple(sorted(vals)))

    @property
    def magnitudes(self) -> tuple[float, ...]:
        return tuple(sorted({abs(x) for x in self.lambda_grid}, reverse=True))


@lru_cache(maxsize=None)
def _stencil_nodes(config: DeformationConfig, order: int, at_lambda: float):
    """Coefficient map node -> weight whose dot product with f(node) estimates
    the order-th derivative at ``at_lambda``, after Richardson extrapolation.

    The coefficients sum to zero analytically, so estimators evaluate
    sum(c * (f(node) - f(center))) and a constant function differentiates to
    exactly 0.0.  The map reads no model, so it is built once per process
    and returned read-only.
    """
    mags = config.magnitudes
    # Orders 3 and 4 step 2h: every magnitude but the largest has its double
    # on the grid, as DeformationConfig checks.
    scales = mags[1:] if order in (3, 4) else mags
    if not scales:
        raise ValueError(f"grid too small for derivative order {order}")
    stencil = _STENCILS[order]
    rows = []
    for h in scales:
        try:
            coeffs = {at_lambda + off * h: c / h**order for off, c in stencil.items()}
        except ArithmeticError:  # h**order overflows, or underflows to zero
            coeffs = {}
        if len(coeffs) < len(stencil):
            raise ValueError(f"step {h} collapses the order-{order} stencil at "
                             f"{at_lambda}: its nodes coincide or its scale is out of range")
        rows.append(coeffs)
    for level in range(1, len(scales)):
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
    if not all(map(math.isfinite, final.values())):
        raise ValueError(f"the order-{order} stencil at {at_lambda} has a coefficient "
                         "that is not finite")
    final.setdefault(at_lambda, 0.0)
    return MappingProxyType(final)


def _folded(coeffs, at_lambda):
    """The stencil ``coeffs`` at ``at_lambda`` moved onto |lambda|: each
    node's weight is added to its mirror's, and the center is |at_lambda|.
    A mirror-symmetric rule averages every function of the tilted measure to
    one value at lambda and -lambda, so both stencils average alike."""
    folded = {}
    for node, c in coeffs.items():
        folded[abs(node)] = folded.get(abs(node), 0.0) + c
    return folded, abs(at_lambda)


def _stencil_plan(rule, stencils):
    """The sorted lambda nodes that ``stencils``, (coeffs, center) pairs,
    need on ``rule``, and per stencil its coefficient vector over the nodes
    and the index of its center.  A rule whose nodes are mirror-symmetric in
    the field couplings takes every stencil folded onto |lambda|.  Nodes of
    zero weight in every stencil are left out, centers excepted."""
    if rule.mirror_symmetric:
        stencils = [_folded(*s) for s in stencils]
    nodes = sorted({at for _, at in stencils}.union(
        *({node for node, c in coeffs.items() if c} for coeffs, _ in stencils)))
    return nodes, [(np.array([coeffs.get(node, 0.0) for node in nodes]), nodes.index(at))
                   for coeffs, at in stencils]


def _split_zero(rule, nodes):
    """The position of lambda = 0 among ``nodes`` if the moments there run
    once per Hamiltonian node (a rule with field nodes; the measure at 0
    does not read the field), else None; and the nodes the full grid
    evaluates."""
    zero = nodes.index(0.0) if rule.field_nodes > 1 and 0.0 in nodes else None
    return zero, [lam for k, lam in enumerate(nodes) if k != zero]


def fd_derivative(
    model,
    g,
    order,
    config=None,
    n_samples=10000,
    seed=0,
    *,
    at_lambda=0.0,
    method="mc",
    n_nodes=64,
) -> QuenchedEstimate:
    """Finite-difference derivative of the deformed expectation of ``g`` with
    respect to the deformation strength, evaluated at ``at_lambda``.

    Even orders 2 and 4 serve the identity checks; odd orders exist to
    demonstrate that odd derivatives vanish.  At 0 on the quadrature grid,
    whose stencils fold onto |lambda|, an odd stencil weighs every node zero,
    so the result is exactly 0.0, with truncation 0.0, and no grid is
    evaluated.  The same disorder node is used at every grid node (common
    random numbers), and the stencil is applied per node so the Monte Carlo
    standard error propagates through it.
    """
    order = _integer("order", order)
    if order not in _STENCILS:
        raise ValueError(f"derivative order must be one of {sorted(_STENCILS)}")
    _check_finite("at_lambda", at_lambda)
    rule = _rule(method, model, n_samples, seed, n_nodes)
    config = config or DeformationConfig()
    poly = _leg_free_polynomial(g)
    nodes, [(c, center)] = _stencil_plan(rule, [(_stencil_nodes(config, order, at_lambda),
                                                  at_lambda)])
    if not c.any():  # every node weighs zero, on the doubled grid too
        return QuenchedEstimate(0.0, 0.0, rule.samples, rule.seed, rule.method, 0.0)
    evaluator = _PolyMoments(model, poly)
    zero, lams = _split_zero(rule, nodes)

    def at_zero(draws):
        return evaluator.value_grid(gibbs_weights(model, draws[:, 0]))[:, None]

    def fill(draws, base=None):
        values = evaluator.value_grid(_gibbs_grid(model, draws, lams))
        if base is not None:
            values = np.concatenate([values[:, :zero], base[:, :1], values[:, zero:]], axis=1)
        return ((values - values[:, [center]]) @ c)[:, None]

    base = None if zero is None else (1, model.n_configs, at_zero, [(evaluator, 1)])
    # chunks of the unsplit run: the stencil's matrix-vector product rounds
    # the last rows of a chunk by the chunk's length
    return _estimate(model, rule, len(nodes) * model.n_configs, fill, [(evaluator, len(lams))],
                     base)


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
    randomness, plus the pass/fail verdict per row.

    ``tol`` is the tolerance the rows were gated at, where the rule takes
    one (quadrature; Monte Carlo rows gate at 3 standard errors and report
    None), and ``lemma_lambda`` the point of the first-derivative row, if
    there is one, so that a report's fields name every input it read."""

    label: str
    model: ModelInstance | None
    graph: Multigraph | None
    n: int | None
    method: str
    samples: int
    seed: int
    lambda_grid: tuple[float, ...]
    tol: float | None
    lemma_lambda: float | None
    rows: tuple[IdentityRow, ...]
    passed: bool


def _identity_report(label, rule, blocks, per_node, row_labels, fill, tol=None,
                     model=None, graph=None, n=None, lambda_grid=(), lemma_lambda=None,
                     uses=(), base=None) -> IdentityReport:
    """One identity report, a row per label.  ``fill(draws)`` returns a
    chunk's sides as lists ``(lhs, rhs)``, one (nodes,) array or constant per
    row; each row compares the rule's averages of both sides and of their
    per-node difference (common random numbers).  ``uses`` are the
    evaluators ``fill`` runs, as :func:`_check_run` takes them, and
    ``base`` is :func:`_evaluate`'s."""
    k = len(row_labels)

    def columns(draws, *base_rows):
        lhs, rhs = fill(draws, *base_rows)
        sides = np.stack(np.broadcast_arrays(*lhs, *rhs), axis=1)
        return np.concatenate([sides, sides[:, :k] - sides[:, k:]], axis=1)

    slots = _evaluate(rule, blocks, 3 * k, per_node, columns, model, uses, base)
    rows = []
    for pos, row_label in enumerate(row_labels):
        (lhs, lhs_err), (rhs, rhs_err), (diff, diff_err) = (
            rule.stats(slots[:, pos + side * k]) for side in range(3))
        tolerance = rule.tolerance(diff_err, tol)
        rows.append(IdentityRow(row_label, lhs, lhs_err, rhs, rhs_err, diff, diff_err,
                                tolerance, abs(diff) <= tolerance))
    return IdentityReport(label=label, model=model, graph=graph, n=n, method=rule.method,
                          samples=rule.samples, seed=rule.seed, lambda_grid=lambda_grid,
                          tol=tol if rule.fixed_tolerance else None,
                          lemma_lambda=lemma_lambda, rows=tuple(rows),
                          passed=all(r.passed for r in rows))


def identity_check(
    model,
    g,
    n,
    n_samples=20000,
    seed=0,
    *,
    config=None,
    method="mc",
    tol=1e-6,
    lemma_lambda=0.2,
    n_nodes=64,
) -> IdentityReport:
    """Check that the order-2n derivative of the deformed expectation of ``g``
    at zero deformation equals (2n-1)!! times the quenched average of the
    n-fold stability polynomial.

    For n=1 the report also checks the first-derivative identity away from
    zero: d/dlam E_lam(g) = lam * E_lam(stability polynomial of g), by
    differencing around ``lemma_lambda`` (set it to None to skip).

    MC rows pass when |diff| is within 3 combined standard errors (computed
    from per-sample differences under common random numbers); quadrature rows
    pass when |diff| <= tol, a finite tol >= 0.  Both sides of a quadrature
    row share the coupling nodes: a row certifies the identity at each
    coupling node, not the convergence of either side.
    """
    _check_nonnegative("tol", tol)
    n = _integer("n", n)
    if n not in (1, 2):
        # The stencils stop at order 4 = 2n.
        raise ValueError(f"n={n} is not supported: the identity is checked at orders n = 1 and 2")
    if lemma_lambda is not None:
        _check_finite("lemma_lambda", lemma_lambda)
    rule = _rule(method, model, n_samples, seed, n_nodes)
    config = config or DeformationConfig()
    gc = canonicalize(g)
    poly_g = _leg_free_polynomial(gc)
    dpoly = poly_g
    for _ in range(n):
        dpoly = big_delta(dpoly)
    const = double_factorial(2 * n - 1)
    # (label, stencil, point, factor): the stencil's derivative at ``point``
    # against ``factor`` times E(Delta^n g) there.
    rows = [(f"d^{2 * n}/dlam^{2 * n} at 0 vs {const} * E(Delta^{n} g)",
             _stencil_nodes(config, 2 * n, 0.0), 0.0, float(const))]
    lam0 = None
    if n == 1 and lemma_lambda is not None:
        lam0 = float(lemma_lambda) + 0.0  # -0.0 becomes 0.0
        rows.append((f"d/dlam at {lam0} vs lam * E_lam(Delta g)",
                     _stencil_nodes(config, 1, lam0), lam0, lam0))
    nodes, stencils = _stencil_plan(rule, [(coeffs, point) for _, coeffs, point, _ in rows])
    at = [center for _, center in stencils]
    ev_g = _PolyMoments(model, poly_g)
    ev_d = _PolyMoments(model, dpoly)
    zero, lams = _split_zero(rule, nodes)
    # where each rhs point not at a split-off lambda = 0 sits among lams; the
    # points at 0 lead ``at``, as the first row's point is 0
    tilted = [lams.index(nodes[k]) for k in at if k != zero]

    def at_zero(draws):
        w = gibbs_weights(model, draws[:, 0])
        return np.stack([ev_g.value_grid(w), ev_d.value_grid(w)], axis=1)

    def fill(draws, base=None):
        weights = _gibbs_grid(model, draws, lams)
        f = ev_g.value_grid(weights)
        d = ev_d.value_grid(weights[:, tilted])
        if base is not None:
            f = np.concatenate([f[:, :zero], base[:, :1], f[:, zero:]], axis=1)
            d = np.column_stack([base[:, 1]] * (len(at) - len(tilted)) + [d])
        return ([(f - f[:, [center]]) @ c for c, center in stencils],
                [factor * d[:, k] for k, (*_, factor) in enumerate(rows)])

    base = None if zero is None else (2, model.n_configs, at_zero, [(ev_g, 1), (ev_d, 1)])
    # chunks of the unsplit run, as in fd_derivative
    return _identity_report("stability-moment identity", rule, 2, len(nodes) * model.n_configs,
                            [r[0] for r in rows], fill, tol, model=model, graph=gc, n=n,
                            lambda_grid=config.lambda_grid, lemma_lambda=lam0,
                            uses=[(ev_g, len(lams)), (ev_d, len(tilted))], base=base)


def wick_baseline_check(
    model,
    n_samples=20000,
    seed=0,
    *,
    method="mc",
    tol=1e-8,
    n_nodes=64,
) -> IdentityReport:
    """Check the two pairing baselines that tie Gaussian field moments to
    overlap moments: the squared first bracket against the two-replica
    overlap, and the three-bracket chain against the three-replica chain.
    Quadrature rows pass when |diff| <= tol, a finite tol >= 0."""
    _check_nonnegative("tol", tol)
    rule = _rule(method, model, n_samples, seed, n_nodes, ("exponent", "bracket", "bracket"))
    ev2, ev3 = (_PolyMoments(model, GraphPolynomial.monomial(Multigraph(edges, ())))
                for edges in (((1, 2, 1),), ((1, 2, 1), (2, 3, 1))))
    labels = ("Av(<h>^2) vs E({1,2})", "Av(<h1><h1 h2><h2>) vs E({1,2}{2,3})")
    nc = model.n_configs

    def untilted(draws):
        w = gibbs_weights(model, draws[:, 0])
        return w, [ev2.value_grid(w), ev3.value_grid(w)]

    def at_zero(draws):
        w, rhs = untilted(draws)
        return np.column_stack([w, *rhs])

    def fill(draws, base=None):
        if base is None:
            w, rhs = untilted(draws)
        else:  # einsum's loops round by operand layout: w as untilted gives it
            w, rhs = np.ascontiguousarray(base[:, :nc]), [base[:, nc], base[:, nc + 1]]
        hv = _field_values(model, draws[:, 1:])
        b1, b2 = np.einsum("sc,skc->ks", w, hv)
        b12 = np.einsum("sc,sc,sc->s", w, hv[:, 0], hv[:, 1])
        return [b1 * b1, b1 * b12 * b2], rhs

    base = (nc + 2, nc, at_zero, [(ev2, 1), (ev3, 1)]) if rule.field_nodes > 1 else None
    return _identity_report("wick baselines", rule, 3, 2 * nc, labels, fill, tol, model=model,
                            uses=[] if base else [(ev2, 1), (ev3, 1)], base=base)


def gaussian_ibp_check(n_samples=20000, seed=0) -> IdentityReport:
    """Gaussian integration by parts on a fixed two-field test family:
    E(h_l f) = sum_m c_{l,m} E(df/dh_m), with prescribed covariance and both
    sides estimated from the same draws."""
    rule = _rule("mc", None, n_samples, seed, None)
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

    def fill(draws):
        h = draws @ chol.T
        lhs, rhs = [], []
        for _, func, l in family:
            f, d1, d2 = func(h[:, 0], h[:, 1])
            lhs.append(h[:, l] * f)
            rhs.append(cov[l, 0] * d1 + cov[l, 1] * d2)
        return lhs, rhs

    return _identity_report("gaussian integration by parts", rule, 2, 3 * len(family),
                            [label for label, _, _ in family], fill)
