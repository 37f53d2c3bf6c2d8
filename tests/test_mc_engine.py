"""Batched Monte Carlo engine: the ``default_rng((s, i))`` streams reproduced
bit for bit, agreement with a one-sample-at-a-time scalar reference, memory
held flat by chunking, and calibration of the CRN standard error."""

import math
import statistics
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polynomials
from overlap_lab import (
    BudgetError,
    DeformationConfig,
    GraphPolynomial,
    big_delta,
    deformed_expectation,
    ea_model,
    gaussian_ibp_check,
    gibbs_weights,
    identity_check,
    parse_monomial,
    parse_polynomial,
    sk_model,
    wick_baseline_check,
)
from overlap_lab.lab import (
    _CHUNK_FLOATS,
    MAX_MC_SAMPLES,
    _PolyMoments,
    _stencil_nodes,
    _term_plan,
)
from overlap_lab.streams import (
    _SEED_BLOCK,
    _WEDGE_MARGIN,
    _MonteCarlo,
    _crafted_state,
    _normals,
    _pcg64_outputs,
    _pcg64_states,
    _ziggurat,
)

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


# -- the per-sample streams ------------------------------------------------

# Seeds of one to eight 32-bit words, each end of the one-word range included.
STREAM_SEEDS = [0, 2024, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 3**150]
# Draw shapes of the SK N=3 identity, the EA ring of 6, the SK N=3 baseline,
# the Gaussian IBP check, the EA ring of 4 and the SK N=5 identity.
STREAM_SHAPES = [(2, 3, 3), (2, 6), (3, 3, 3), (2,), (2, 4), (2, 5, 5)]
# Index ranges near 0, across two seeding blocks and up to the last index.
STREAM_RANGES = [(0, 40), (_SEED_BLOCK - 20, _SEED_BLOCK + 20), (2**32 - 40, 2**32)]


@pytest.mark.parametrize("shape", STREAM_SHAPES, ids=str)
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_draws_are_the_default_rng_streams_bit_for_bit(seed, shape, monkeypatch):
    # Fails loudly if numpy changes how SeedSequence or PCG64 seed themselves.
    expected = []
    for lo, hi in STREAM_RANGES:
        ref = np.empty((hi - lo, *shape))
        for i in range(lo, hi):
            np.random.default_rng((seed, i)).standard_normal(out=ref[i - lo])
        expected.append(ref.tobytes())
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args, **kwargs: pytest.fail("default_rng called"))
    for (lo, hi), ref in zip(STREAM_RANGES, expected):
        assert _MonteCarlo(MAX_MC_SAMPLES, seed).draws(lo, hi, shape).tobytes() == ref
        rule, mid = _MonteCarlo(MAX_MC_SAMPLES, seed), lo + 23
        chunks = np.concatenate([rule.draws(lo, mid, shape), rule.draws(mid, hi, shape)])
        assert chunks.tobytes() == ref


def test_slow_outputs_past_the_last_draw():
    # Sample 79417 of seed 10 takes its 8 normals from its first 8 outputs;
    # its next three outputs are slow and fail their wedge tests, so each of
    # the last two is both a u and a failed test.  Counted twice, the lane
    # kept 9 values.
    i = 79417
    ref = np.random.default_rng((10, i)).standard_normal((2, 4))
    assert _MonteCarlo(MAX_MC_SAMPLES, 10).draws(i, i + 1, (2, 4)).tobytes() == ref.tobytes()


def test_stream_outputs_are_pcg64_raw_outputs():
    state = _pcg64_states(2024, _SEED_BLOCK - 3, _SEED_BLOCK)
    got = _pcg64_outputs(state, 40)
    for lane, i in enumerate(range(_SEED_BLOCK - 3, _SEED_BLOCK)):
        bitgen = np.random.PCG64(np.random.SeedSequence((2024, i)))
        assert (got[:, lane] == bitgen.random_raw(40)).all()


# 50,000 lanes of 200 normals: one default_rng per lane keeps the reference
# cheap.  At about 1.5% slow outputs per draw this reaches every layer's
# wedge, both ways, and the tail (about 2.6e-4 of the draws).
LONG_LANES, LANE_DRAWS, LANE_CHUNK = 50_000, 200, 2_000


def test_ten_million_draws_are_the_default_rng_streams():
    ki, wi, fi = _ziggurat()
    rule = _MonteCarlo(LONG_LANES, 2025)
    slow_layers, tails, accepts, rejects = np.zeros(256, dtype=int), 0, 0, 0
    for lo in range(0, LONG_LANES, LANE_CHUNK):
        got = rule.draws(lo, lo + LANE_CHUNK, (LANE_DRAWS,))
        ref = np.empty_like(got)
        for i, row in zip(range(lo, lo + LANE_CHUNK), ref):
            np.random.default_rng((2025, i)).standard_normal(out=row)
        assert got.tobytes() == ref.tobytes()
        # what the outputs behind these draws exercise: each lane consumes at
        # least its first LANE_DRAWS outputs
        r = _pcg64_outputs(_pcg64_states(2025, lo, lo + LANE_CHUNK), LANE_DRAWS + 1)
        idx = (r & 0xFF).astype(np.intp)[:-1]
        rabs = (r >> 9 & (2**52 - 1))[:-1]
        slow = rabs >= ki[idx]
        slow_layers += np.bincount(idx[slow], minlength=256)
        tails += int((slow & (idx == 0)).sum())
        x = rabs * wi[idx]
        u = (r[1:] >> 11) * 2.0**-53
        wedge = slow & (idx > 0)
        below = ((fi[idx - 1] - fi[idx]) * u + fi[idx] < np.exp(-0.5 * x * x))[wedge]
        accepts += int(below.sum())
        rejects += int((~below).sum())
    assert (slow_layers[1:] > 100).all() and tails > 1000
    assert accepts > 10_000 and rejects > 10_000


def crafted_lanes(outputs):
    """Lane states, in the form of ``_pcg64_states``, whose first two
    outputs are the given pairs, and a Generator per lane at that state."""
    states = [_crafted_state(r1, r2) for r1, r2 in outputs]
    words = [(s["state"]["state"], s["state"]["inc"]) for s in states]
    lanes = [np.array([v >> 64 & (2**64 - 1) for v, _ in words], dtype=np.uint64),
             np.array([v & (2**64 - 1) for v, _ in words], dtype=np.uint64),
             np.array([v >> 64 for _, v in words], dtype=np.uint64),
             np.array([v & (2**64 - 1) for _, v in words], dtype=np.uint64)]
    gens = []
    for s in states:
        bitgen = np.random.PCG64(0)
        bitgen.state = s
        gens.append(np.random.Generator(bitgen))
    return lanes, gens


def array_path(outputs, k=3):
    """``_normals`` on crafted lanes: the lanes it settles, checked against
    numpy's sampler bit for bit, and the lanes it leaves to numpy."""
    lanes, gens = crafted_lanes(outputs)
    out = np.empty((len(outputs), k))
    left = set(_normals(lanes, k, out).tolist())
    for lane, gen in enumerate(gens):
        if lane not in left:
            assert out[lane].tobytes() == gen.standard_normal(k).tobytes(), outputs[lane]
    return left


def test_fast_path_thresholds_per_layer():
    # rabs = ki - 1 returns at once and rabs = ki takes the wedge test, whose
    # u = 0 (output 2) accepts; a threshold off by one would either read
    # output 2 as the next draw or skip it.
    ki, _, _ = _ziggurat()
    outputs = [(rabs << 9 | i, 2) for i in range(256)
               for rabs in (int(ki[i]) - 1, int(ki[i])) if rabs >= 0]
    left = array_path(outputs)
    # only layer 0's rabs = ki, a tail start, goes to numpy (plus lanes whose
    # later random outputs happen to be slow)
    assert outputs.index((int(ki[0]) << 9, 2)) in left
    assert len(left) < 0.05 * len(outputs)


def test_wedge_margin_covers_numpy_boundary():
    # In every layer, place u just past the margin on both sides of the
    # boundary predicted from the tables: numpy must decide as the array path
    # does (accept below, reject above).  At the boundary itself the lane is
    # left to numpy.  The output carrying u is a draw of its own in the
    # layer with the largest threshold; x is chosen so that it is a fast one
    # there, since two slow outputs in a row leave the lane to numpy too.
    ki, wi, fi = _ziggurat()
    wide = int(np.argmax(ki))
    outputs, at_boundary = [], []
    for i in range(1, 256):
        for part in (2, 3, 5, 7, 11):
            rabs = int(ki[i]) + (2**52 - int(ki[i])) // part
            x = rabs * wi[i]
            height = fi[i - 1] - fi[i]
            u = (math.exp(-0.5 * x * x) - fi[i]) / height * 2.0**53
            du = 1.001 * _WEDGE_MARGIN / height * 2.0**53  # 0.1% past the margin
            placed = (math.floor(u - du), round(u), math.ceil(u + du))
            if all(pos << 2 & (2**52 - 1) < ki[wide] for pos in placed):
                break
        for pos in placed:
            assert 0 <= pos < 2**53
            if pos == round(u):
                at_boundary.append(len(outputs))
            outputs.append((rabs << 9 | i, pos << 11 | wide))
    left = array_path(outputs)
    assert set(at_boundary) <= left
    assert len(left - set(at_boundary)) < 0.05 * len(outputs)


def test_sample_count_bound():
    assert _MonteCarlo(MAX_MC_SAMPLES, 0).size == 2**32
    with pytest.raises(BudgetError, match="bound of 4294967296"):
        _MonteCarlo(MAX_MC_SAMPLES + 1, 0)


def test_stats_are_fsum_of_the_python_floats_bit_for_bit():
    # Heavy cancellation: a plain sum loses the small terms.
    col = np.random.default_rng(5).standard_normal(4000)
    col[::1000] = [1e16, 3e15, -1e16, -3e15]
    floats = col.tolist()
    assert sum(floats) != math.fsum(floats)
    mean = math.fsum(floats) / len(floats)
    var = math.fsum((v - mean) * (v - mean) for v in floats) / (len(floats) - 1)
    assert _MonteCarlo(2, 0).stats(col) == (mean, math.sqrt(var / len(floats)))


def _adversarial_columns():
    rng = np.random.default_rng(8)
    cancel = rng.standard_normal(3000)
    cancel[::500] = [1e150, -1e150, 2.0**-1074, 1e16, -1e16, 3.0]
    subnormal = rng.standard_normal(2000) * 2.0**-1060
    mixed = rng.standard_normal(4000) * 10.0 ** rng.integers(-150, 150, 4000)
    strided = rng.standard_normal((2000, 6)) * [1e-8, 1, 1e8, -1e15, 1e-300, 7]
    return {"cancellation": cancel, "subnormal": subnormal, "mixed": mixed,
            "strided": strided[:, 3], "strided-tiny": strided[:, 4]}


@pytest.mark.parametrize("name", sorted(_adversarial_columns()))
def test_stats_reduce_columns_as_fsum_of_their_lists(name):
    col = _adversarial_columns()[name]
    m = len(col)
    mean = math.fsum(col.tolist()) / m
    var = math.fsum(((col - mean) ** 2).tolist()) / (m - 1)
    assert _MonteCarlo(2, 0).stats(col) == (mean, math.sqrt(var / m))


@pytest.mark.parametrize("col", [np.array([1e300, -1e300] * 5), np.full(4, 1e308)],
                         ids=["spread", "mean"])
def test_stats_refuse_what_overflows(col):
    # +-1e300 squares past the float range, and four 1e308 sum past it; an
    # infinite stderr would pass any gate.  numpy warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows the float range"):
            _MonteCarlo(2, 0).stats(col)


def test_stats_memory_is_one_column():
    # a strided 1M-sample column: no Python float per sample, one float64
    # temporary for the squared deviations (7.6 MiB)
    slots = np.random.default_rng(9).standard_normal((1_000_000, 3))
    tracemalloc.start()
    try:
        _MonteCarlo(2, 0).stats(slots[:, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


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
    g = parse_monomial(text)
    ev = _PolyMoments(model, GraphPolynomial.monomial(g))
    steps, rows = _term_plan(model.n_configs, g)
    assert all(len(inputs) <= 2 for _, inputs, _ in steps)
    assert max(len(out) - 3 for _, _, out in steps) == order
    assert rows == max(1, _CHUNK_FLOATS // model.n_configs**order)
    assert ev._rows == rows
    assert len(ev._program) <= len(steps)
    assert all(len(srcs) <= 2 for _, srcs, _, _ in ev._program)


def test_cyclic_term_memory_is_sliced():
    # One 200-sample chunk at full width would hold 200 x 64^2 floats (6.5 MB)
    # per intermediate on the 64 configurations of the ring of 7; row slices
    # keep each within _CHUNK_FLOATS.
    model = ea_model((7,), 0.5)
    g = parse_monomial("{1,3}{1,4}{2,3}{2,4}")
    tracemalloc.start()
    try:
        deformed_expectation(model, g, 0.3, 200, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


# -- the shared step program ------------------------------------------------

def delta_power(text, n):
    poly = GraphPolynomial.monomial(parse_monomial(text))
    for _ in range(n):
        poly = big_delta(poly)
    return poly


def normalized_weights(model, rows, seed):
    x = 2.0 * np.random.default_rng(seed).standard_normal((rows, model.n_configs))
    w = np.exp(x - x.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def per_term(model, poly, w):
    """The polynomial summed from one single-term program per term, in the
    program's term order."""
    total = np.zeros(w.shape[:-1])
    for g, coeff in poly.items():
        total += coeff * _PolyMoments(model, GraphPolynomial.monomial(g)).value_grid(w)
    return total


# The ring of 6 carries Delta({1,2}{2,3}) in its own test below: its terms
# slice rows differently.
SHARED_CASES = [
    pytest.param(lambda: sk_model(2, 0.5), "{1,2}", 1, id="sk2-delta"),
    pytest.param(lambda: sk_model(2, 0.5), "{1,2}", 2, id="sk2-delta2"),
    pytest.param(lambda: sk_model(3, 0.5), "{1,2}", 1, id="sk3-delta"),
    pytest.param(lambda: sk_model(3, 0.5), "{1,2}", 2, id="sk3-delta2"),
    pytest.param(lambda: ea_model((4,), 0.5), "{1,2}{2,3}", 1, id="ea4-delta-chain"),
]


@pytest.mark.parametrize("model_fn,text,n", SHARED_CASES)
@pytest.mark.parametrize("rows", [1, 7, 300])
def test_program_equals_per_term_contraction_bit_for_bit(model_fn, text, n, rows):
    model = model_fn()
    poly = delta_power(text, n)
    w = normalized_weights(model, rows, 5)
    got = _PolyMoments(model, poly).value_grid(w)
    assert got.tobytes() == per_term(model, poly, w).tobytes()


@pytest.mark.parametrize("rows", [1, 7, 300])
def test_ring_of_6_delta_chain_equals_slice_matched_terms_bit_for_bit(rows):
    # Delta({1,2}{2,3}) on the ring of 6: the triangle term alone slices
    # _CHUNK_FLOATS / nc^2 rows (16 on its 32 configurations) and the other
    # terms _CHUNK_FLOATS / nc (512), and the program runs every term on the
    # triangle's slices.  A longer matmul can round differently (by 4.4e-15
    # at 300 rows, seen on 256-row slices), so this reference runs the terms
    # on the program's slices.
    model = ea_model((6,), 0.5)
    nc = model.n_configs
    poly = delta_power("{1,2}{2,3}", 1)
    ev = _PolyMoments(model, poly)
    assert sorted({_term_plan(nc, g)[1] for g, _ in poly.items()}) == [
        _CHUNK_FLOATS // nc**2, _CHUNK_FLOATS // nc]
    assert ev._rows == _CHUNK_FLOATS // nc**2
    w = normalized_weights(model, rows, 5)
    ref = np.concatenate([per_term(model, poly, w[lo:lo + ev._rows])
                          for lo in range(0, rows, ev._rows)])
    assert ev.value_grid(w).tobytes() == ref.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 17, 40])
def test_cyclic_terms_share_one_program_bit_for_bit(rows):
    # the 4-cycle alone slices _CHUNK_FLOATS / nc^2 rows at a time (64 on
    # SK N=5's 16 configurations), K4 _CHUNK_FLOATS / nc^3 (4): the program
    # runs both on K4's slices
    model = sk_model(5, 0.5)
    nc = model.n_configs
    poly = parse_polynomial("2" + CYCLIC[0].values[0] + " - " + CYCLIC[1].values[0])
    ev = _PolyMoments(model, poly)
    assert sorted(_term_plan(nc, g)[1] for g, _ in poly.items()) == [
        _CHUNK_FLOATS // nc**3, _CHUNK_FLOATS // nc**2]
    assert ev._rows == _CHUNK_FLOATS // nc**3
    w = normalized_weights(model, rows, 9)
    assert ev.value_grid(w).tobytes() == per_term(model, poly, w).tobytes()


def test_terms_share_their_common_steps():
    # per-term plans: 11 steps for Delta{1,2}, 43 for Delta^2{1,2}
    model = sk_model(2, 0.5)
    for n, planned, distinct in ((1, 11, 8), (2, 43, 25)):
        poly = delta_power("{1,2}", n)
        ev = _PolyMoments(model, poly)
        assert sum(len(_term_plan(model.n_configs, g)[0]) for g, _ in poly.items()) == planned
        assert len(ev._program) <= distinct


def test_models_of_one_size_share_one_compiled_program(fresh_memos):
    # The program reads the number of configurations and the polynomial, not
    # beta or the model: a beta sweep compiles it once, and each model's own
    # overlap powers make its values bit for bit those of a fresh compile.
    from overlap_lab import lab

    poly = delta_power("{1,2}{2,3}", 2)
    models = (sk_model(3, 0.3), sk_model(3, 1.1), ea_model((3,), 0.5))  # 4 configurations
    evs = [_PolyMoments(model, poly) for model in models]
    assert all(ev._program is evs[0]._program for ev in evs)
    assert lab._compiled.cache_info().misses == 1
    w = normalized_weights(models[0], 300, 5)
    values = [ev.value_grid(w) for ev in evs]
    assert not np.array_equal(values[0], values[2])  # the ring's own overlap
    lab._compiled.cache_clear()
    for model, shared in zip(models, values):
        fresh = _PolyMoments(model, poly)
        assert fresh._program is not evs[0]._program
        assert fresh.value_grid(w).tobytes() == shared.tobytes()


def test_shared_program_memory_stays_flat():
    # On the ring of 6's 32 configurations K4 runs one row at a time, and its
    # widest step holds two 32^3-float intermediates (512 KiB) however it is
    # sliced.  The 4-cycle's registers are dropped before K4 starts, and
    # K4's own after their last use, so the polynomial needs no more than K4
    # does.
    model = ea_model((6,), 0.5)
    ev = _PolyMoments(model, parse_polynomial(
        CYCLIC[0].values[0] + " + " + CYCLIC[1].values[0]))
    w = normalized_weights(model, 200, 3)
    tracemalloc.start()
    try:
        ev.value_grid(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * model.n_configs**3 * 8 + 2**19, peak


def dense_reference(model, poly, w):
    """Per sample, every term as one einsum over all its replica indices."""
    total = np.zeros(len(w))
    scale = np.zeros(len(w))
    for g, coeff in poly.items():
        letters = "abcd"[:len(g.support)]
        subs = list(letters) + [letters[i - 1] + letters[j - 1] for i, j, _ in g.edges]
        ops = [model.overlap**m for _, _, m in g.edges]
        for k, row in enumerate(w):
            v = np.einsum(",".join(subs) + "->", *([row] * len(letters) + ops),
                          optimize=True)
            total[k] += coeff * v
            scale[k] += abs(coeff * v)
    return total, scale


def small_leg_free(poly):
    return GraphPolynomial((g, c) for g, c in poly.items()
                           if g.is_leg_free() and len(g.support) <= 4)


@given(polynomials().map(small_leg_free), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_program_matches_dense_einsum(poly, seed):
    for model in (sk_model(3, 0.5), ea_model((4,), 0.5)):
        w = normalized_weights(model, 3, seed)
        got = _PolyMoments(model, poly).value_grid(w)
        ref, scale = dense_reference(model, poly, w)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale + 1e-300), (got, ref)
