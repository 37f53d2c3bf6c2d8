"""Batched Monte Carlo engine: agreement with a one-sample-at-a-time scalar
reference, memory held flat by chunking, and calibration of the CRN
standard error."""

import math
import statistics
import tracemalloc

import numpy as np
import pytest

from overlap_lab import (
    DeformationConfig,
    GraphPolynomial,
    deformed_expectation,
    ea_model,
    gaussian_ibp_check,
    gibbs_weights,
    identity_check,
    parse_monomial,
    sk_model,
    wick_baseline_check,
)
from overlap_lab.lab import _CHUNK_FLOATS, _PolyMoments, _stencil_nodes

C12 = parse_monomial("{1,2}")
MODELS = [
    pytest.param(lambda: sk_model(3, 0.5), id="sk3"),
    pytest.param(lambda: ea_model((6,), 0.5), id="ea6"),
]
# These counts span several chunks of every estimator below and end in a
# partial one, at the current chunk budget.
N_IDENTITY = 1000
N_CHEAP = 5000
REL = 1e-12
# A stencil multiplies rounding in the values it differences by at most its
# gain (see fd_gain in the benchmark), so its outputs get that much absolute
# slack on top of REL.
FD_EPS = 2.0 * 2.0**2 / 0.05**2 * 1e-14


# -- scalar reference, one sample at a time, from the raw definitions -------

def draws(model, seed, i, k):
    rng = np.random.default_rng((seed, i))
    return [rng.standard_normal(model.coupling_shape) for _ in range(k)]


def field(model, hc):
    s = model.spins
    if model.kind == "sk":
        return np.einsum("ci,ij,cj->c", s, hc, s) / model.n_sites
    tot = sum(hc[b] * s[:, i] * s[:, j] for b, (i, j) in enumerate(model.bonds))
    return tot / math.sqrt(len(model.bonds))


def q12(model, w):
    return w @ model.overlap @ w


def chain(model, w):  # {1,2}{1,3}
    return w @ (model.overlap @ w) ** 2


# Delta{1,2} = 2{1,2}^2 - 8{1,2}{1,3} + 6{1,2}{3,4} (acceptance criterion 1).
def stability(model, w):
    return 2 * (w @ model.overlap**2 @ w) - 8 * chain(model, w) + 6 * q12(model, w) ** 2


def stencil(coeffs, at, f):
    center = f(at)
    return sum(c * (f(node) - center) for node, c in sorted(coeffs.items()))


def stats(col):
    col = np.asarray(col)
    return col.mean(), col.std(ddof=1) / math.sqrt(len(col))


def assert_row(row, ref_cols, fd=False):
    slack = FD_EPS if fd else 0.0
    for got, col, abs_tol in (
        ((row.lhs, row.lhs_stderr), ref_cols[0], slack),
        ((row.rhs, row.rhs_stderr), ref_cols[1], 0.0),
        ((row.diff, row.diff_stderr), ref_cols[2], slack),
    ):
        assert got == pytest.approx(stats(col), rel=REL, abs=abs_tol)


# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_fn", MODELS)
def test_deformed_expectation_matches_scalar_reference(model_fn):
    model = model_fn()
    est = deformed_expectation(model, C12, 0.3, N_CHEAP, 11)
    ref = []
    for i in range(N_CHEAP):
        j, h = draws(model, 11, i, 2)
        ref.append(q12(model, gibbs_weights(model, j, 0.3, h)))
    assert (est.mean, est.stderr) == pytest.approx(stats(ref), rel=REL)


@pytest.mark.parametrize("model_fn", MODELS)
def test_antithetic_evenness_bit_exact_across_chunks(model_fn):
    model = model_fn()
    plus = deformed_expectation(model, C12, 0.25, N_CHEAP, 99)
    minus = deformed_expectation(model, C12, -0.25, N_CHEAP, 99, antithetic_h=True)
    assert (plus.mean, plus.stderr) == (minus.mean, minus.stderr)


@pytest.mark.parametrize("model_fn", MODELS)
def test_identity_rows_match_scalar_reference(model_fn):
    model = model_fn()
    config = DeformationConfig()
    main = _stencil_nodes(config, 2, 0.0)
    lemma = _stencil_nodes(config, 1, 0.2)
    chunk = _CHUNK_FLOATS // (len(main.keys() | lemma.keys()) * model.n_configs)
    assert N_IDENTITY > 2 * chunk and N_IDENTITY % chunk

    rep = identity_check(model, C12, 1, n_samples=N_IDENTITY, seed=5)
    cols = [[] for _ in range(6)]
    for i in range(N_IDENTITY):
        j, h = draws(model, 5, i, 2)

        def f(lam):
            return q12(model, gibbs_weights(model, j, lam, h))

        lhs = stencil(main, 0.0, f)
        rhs = stability(model, gibbs_weights(model, j, 0.0, h))
        lhs2 = stencil(lemma, 0.2, f)
        rhs2 = 0.2 * stability(model, gibbs_weights(model, j, 0.2, h))
        for col, v in zip(cols, (lhs, rhs, lhs - rhs, lhs2, rhs2, lhs2 - rhs2)):
            col.append(v)
    assert_row(rep.rows[0], cols[:3], fd=True)
    assert_row(rep.rows[1], cols[3:], fd=True)


@pytest.mark.parametrize("model_fn", MODELS)
def test_wick_baseline_matches_scalar_reference(model_fn):
    model = model_fn()
    rep = wick_baseline_check(model, N_CHEAP, 23)
    cols = [[] for _ in range(6)]
    for i in range(N_CHEAP):
        j, h1, h2 = draws(model, 23, i, 3)
        w = gibbs_weights(model, j)
        hv1, hv2 = field(model, h1), field(model, h2)
        lhs_a, rhs_a = (w @ hv1) ** 2, q12(model, w)
        lhs_b, rhs_b = (w @ hv1) * (w @ (hv1 * hv2)) * (w @ hv2), chain(model, w)
        for col, v in zip(cols, (lhs_a, rhs_a, lhs_a - rhs_a,
                                 lhs_b, rhs_b, lhs_b - rhs_b)):
            col.append(v)
    assert_row(rep.rows[0], cols[:3])
    assert_row(rep.rows[1], cols[3:])


def test_gaussian_ibp_matches_scalar_reference():
    rep = gaussian_ibp_check(N_CHEAP, 31)
    chol = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))
    cols = [[] for _ in range(15)]
    for i in range(N_CHEAP):
        h1, h2 = chol @ np.random.default_rng((31, i)).standard_normal(2)
        e1, e2 = math.exp(0.3 * h1), math.exp(0.3 * h2)
        f, g = 2 * e1 / (e1 + e2), 2 * e2 / (e1 + e2)
        sides = (
            (h1 * h1, 1.0),
            (h1 * h1 * h1, 2.0 * h1),
            (h2 * h1 * h2, 0.5 * h2 + h1),
            (h1 * f, 0.3 * f - 0.15 * f * f + 0.5 * (-0.15 * f * g)),
            (h2 * f, 0.5 * (0.3 * f - 0.15 * f * f) - 0.15 * f * g),
        )
        for k, (lhs, rhs) in enumerate(sides):
            for col, v in zip(cols[3 * k:3 * k + 3], (lhs, rhs, lhs - rhs)):
                col.append(v)
    for k, row in enumerate(rep.rows):
        lhs, rhs, diff = cols[3 * k:3 * k + 3]
        assert (row.lhs, row.lhs_stderr) == pytest.approx(stats(lhs), rel=REL)
        rhs_stats = stats(rhs)  # a constant rhs has stderr 0
        assert (row.rhs, row.rhs_stderr) == pytest.approx(rhs_stats, rel=REL, abs=1e-15)
        assert (row.diff, row.diff_stderr) == pytest.approx(stats(diff), rel=REL)


def test_identity_memory_is_flat_in_samples():
    model = ea_model((6,), 0.5)
    tracemalloc.start()
    try:
        identity_check(model, C12, 1, n_samples=2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_crn_stderr_is_calibrated():
    # z = diff / diff_stderr over 200 independent seeds (pinned up front):
    # a calibrated estimator gives mean 0 and variance 1; the bounds are
    # 3 sigma for 200 draws.
    model = sk_model(3, 0.5)
    z = []
    for seed in range(200):
        row = identity_check(model, C12, 1, n_samples=500, seed=seed,
                             lemma_lambda=None).rows[0]
        z.append(row.diff / row.diff_stderr)
    assert abs(statistics.fmean(z)) < 0.22
    assert 0.7 < statistics.variance(z) < 1.3


# Terms that need two free replica indices in an intermediate: the 4-cycle
# (pairwise through overlap-matrix-sized intermediates) and K4 (three-index
# intermediates).
CYCLIC = [
    pytest.param("{1,3}{1,4}{2,3}{2,4}", 2, id="cycle4"),
    pytest.param("{1,2}{1,3}{1,4}{2,3}{2,4}{3,4}", 3, id="K4"),
]


def replica_term(model, g, w):
    q = model.overlap
    ops = [w] * 4 + [q] * len(g.edges)
    subs = ["a", "b", "c", "d"] + ["abcd"[i - 1] + "abcd"[j - 1] for i, j, _ in g.edges]
    return np.einsum(",".join(subs) + "->", *ops, optimize=True)


@pytest.mark.parametrize("text,order", CYCLIC)
def test_cyclic_terms_match_scalar_reference(text, order):
    model = sk_model(5, 0.5)
    g = parse_monomial(text)
    est = deformed_expectation(model, g, 0.3, 60, 13)
    ref = []
    for i in range(60):
        j, h = draws(model, 13, i, 2)
        ref.append(replica_term(model, g, gibbs_weights(model, j, 0.3, h)))
    assert (est.mean, est.stderr) == pytest.approx(stats(ref), rel=REL)


@pytest.mark.parametrize("text,order", CYCLIC)
def test_cyclic_terms_contract_pairwise(text, order):
    model = ea_model((6,), 0.5)
    ev = _PolyMoments(model, GraphPolynomial.monomial(parse_monomial(text)))
    ((_, _, steps, _, rows),) = ev._terms
    assert all(len(inputs) <= 2 for _, inputs, _ in steps)
    assert max(len(out) - 3 for _, _, out in steps) == order
    assert rows == max(1, _CHUNK_FLOATS // model.n_configs**order)


def test_cyclic_term_memory_is_sliced():
    # One 200-sample chunk at full width would hold 200 x 64^2 floats (6.5 MB)
    # per intermediate; row slices keep each within _CHUNK_FLOATS.
    model = ea_model((6,), 0.5)
    g = parse_monomial("{1,3}{1,4}{2,3}{2,4}")
    tracemalloc.start()
    try:
        deformed_expectation(model, g, 0.3, 200, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
