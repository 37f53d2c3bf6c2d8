"""Quenched laboratory: kernels, estimators, oracles, identity checks."""

import math
import time
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from conftest import beta0_oracle, package_modules
from overlap_lab import (
    BudgetError,
    DeformationConfig,
    GraphPolynomial,
    big_delta,
    deformed_expectation,
    ea_model,
    fd_derivative,
    gaussian_ibp_check,
    gibbs_weights,
    identity_check,
    lab,
    link_overlap_ea,
    make_multigraph,
    overlap_sk,
    parse_monomial,
    parse_polynomial,
    quadrature_expectation,
    quenched_expectation,
    replica_moment,
    sk_model,
    stability_deviation,
    wick_baseline_check,
)

C12 = parse_monomial("{1,2}")

# frozen after cross-checking against a 200k-sample MC run (z = 0.49)
GOLDEN_SK2_QUAD_B05_L03 = 0.6439118436058562

#: Every EA lattice of at most 10 sites with sides of 2 or more.
SMALL_EA_LATTICES = [dims for d in (1, 2, 3) for dims in product(range(2, 11), repeat=d)
                     if math.prod(dims) <= 10]


class TestOverlapKernels:
    def test_sk_self_overlap_is_one(self):
        sigma = (1, -1, 1, 1)
        assert overlap_sk(sigma, sigma, 4) == 1.0

    def test_sk_orthogonal_two_spins(self):
        assert overlap_sk((1, 1), (1, -1), 2) == 0.0

    def test_sk_quarter(self):
        assert overlap_sk((1, 1, 1, -1), (1, 1, -1, -1), 4) == 0.25

    def test_sk_length_mismatch(self):
        with pytest.raises(ValueError):
            overlap_sk((1, 1), (1, 1, 1), 3)

    def test_sk_bad_entries(self):
        with pytest.raises(ValueError):
            overlap_sk((1, 2), (1, 1), 2)

    def test_ea_self_overlap_is_one(self):
        bonds = ea_model((4,), 0.0).bonds
        sigma = (1, -1, -1, 1)
        assert link_overlap_ea(sigma, sigma, bonds) == 1.0

    def test_ea_single_flip_on_degree_two_site(self):
        bonds = ea_model((4,), 0.0).bonds
        sigma = (1, 1, 1, 1)
        flipped = (1, -1, 1, 1)
        assert link_overlap_ea(sigma, flipped, bonds) == 1.0 - 2 * 2 / len(bonds)

    def test_ea_alternating_against_uniform(self):
        bonds = ea_model((4,), 0.0).bonds
        sigma = (1, 1, 1, 1)
        alternating = (1, -1, 1, -1)
        # independent exhaustive bond sum
        expected = sum(
            sigma[i] * sigma[j] * alternating[i] * alternating[j] for i, j in bonds
        ) / len(bonds)
        assert link_overlap_ea(sigma, alternating, bonds) == expected == -1.0

    def test_diagonal_overlap_is_exactly_one(self):
        for model in (sk_model(3, 0.5), sk_model(5, 0.0), ea_model((4,), 0.5)):
            assert np.all(np.diag(model.overlap) == 1.0)

    def test_overlap_matrix_matches_pointwise_kernels(self):
        model = sk_model(3, 0.5)
        configs = list(product((-1, 1), repeat=3))
        for a, sa in enumerate(model.spins):
            for b, sb in enumerate(model.spins):
                assert model.overlap[a, b] == pytest.approx(
                    overlap_sk(tuple(int(x) for x in sa), tuple(int(x) for x in sb), 3),
                    abs=1e-14,
                )
        ring = ea_model((4,), 0.5)  # 8 configurations, the last spin +1
        for a in (0, 3, 6):
            for b in (1, 5, 7):
                sa = tuple(int(x) for x in ring.spins[a])
                sb = tuple(int(x) for x in ring.spins[b])
                assert ring.overlap[a, b] == pytest.approx(
                    link_overlap_ea(sa, sb, ring.bonds), abs=1e-14
                )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sk_overlap_is_the_bond_overlap_of_all_ordered_pairs(self, n):
        # (sum_i s_i s'_i)^2 / N^2 = sum_ij s_i s_j s'_i s'_j / N^2
        model = sk_model(n, 0.5)
        configs = [tuple(int(x) for x in s) for s in model.spins]
        for a, sa in enumerate(configs):
            for b, sb in enumerate(configs):
                assert model.overlap[a, b] == link_overlap_ea(sa, sb, model.bonds)
                assert model.overlap[a, b] == pytest.approx(overlap_sk(sa, sb, n),
                                                            rel=0, abs=1e-15)

    # A matmul step multiplies by an overlap power as stored, whichever of
    # its indices the step shares.
    @pytest.mark.parametrize("model", [*(sk_model(n, 0.5) for n in range(2, 7)),
                                       *(ea_model(dims, 0.5) for dims in SMALL_EA_LATTICES)],
                             ids=lambda model: model.describe())
    def test_overlap_powers_are_symmetric_bit_for_bit(self, model):
        for m in (1, 2, 3):
            power = model.overlap**m
            assert power.tobytes() == np.ascontiguousarray(power.T).tobytes()


class TestModels:
    def test_sk_size_bounds(self):
        with pytest.raises(ValueError):
            sk_model(1, 0.5)
        # the 2^29 x 2^29 overlap takes 2^61 bytes
        with pytest.raises(BudgetError, match=r"2\^61\.0 bytes"):
            sk_model(30, 0.5)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            sk_model(3, -0.1)
        with pytest.raises(ValueError):
            sk_model(3, float("inf"))

    def test_ea_ring_bonds(self):
        assert ea_model((4,), 0.0).bonds == ((0, 1), (0, 3), (1, 2), (2, 3))

    @pytest.mark.parametrize("dims", [(3, 3), (2, 5), (2, 2, 2), (1, 4), (2, 1, 3), (10,)])
    def test_ea_bonds_are_the_nearest_neighbor_pairs(self, dims):
        coords = list(product(*map(range, dims)))  # site k sits at coords[k]

        def adjacent(a, b):
            moved = [(x - y) % side in (1, side - 1)
                     for x, y, side in zip(a, b, dims) if x != y]
            return moved == [True]

        expected = tuple((i, j) for i, j in combinations(range(len(coords)), 2)
                         if adjacent(coords[i], coords[j]))
        bonds = ea_model(dims, 0.0).bonds
        assert bonds == expected
        assert list(bonds) == sorted(set(bonds)) and all(i < j for i, j in bonds)

    def test_ea_2d_bond_count(self):
        model = ea_model((2, 2), 0.0)
        assert len(model.bonds) == 4  # dedup of wrapped duplicates

    def test_ea_needs_bonds(self):
        with pytest.raises(ValueError):
            ea_model((1,), 0.0)

    def test_ea_enumeration_cap(self):
        with pytest.raises(BudgetError, match=r"2\^33\.0 bytes"):
            ea_model((4, 4), 0.0)

    def test_huge_lattice_refused_on_its_site_count(self, monkeypatch):
        # 10^10 sites: neither 2^N nor the bonds are formed before the refusal
        monkeypatch.setattr(lab.ModelInstance, "bonds", property(
            lambda self: pytest.fail("listed the bonds")))
        t0 = time.perf_counter()
        with pytest.raises(BudgetError, match="2\\^9999999999 x 2\\^9999999999 overlap"):
            ea_model((100000, 100000), 0.5)
        assert time.perf_counter() - t0 < 0.1

    def test_every_construction_is_checked(self):
        # the 2^13 x 2^13 overlap of 14 sites takes 512 MB, 15 sites' 2 GB
        with pytest.raises(BudgetError):
            lab.ModelInstance(kind="sk", beta=0.5, n_sites=15)
        assert lab.ModelInstance(kind="sk", beta=0.5, n_sites=14).n_configs == 2**13


class TestIntegerCounts:
    # Sizes, n, node and sample counts and seeds are taken through
    # operator.index: numpy integers and bools become plain ints, and a
    # float is refused with an error naming its argument.

    def test_numpy_integer_size_runs_a_quadrature_identity(self):
        model = sk_model(np.int64(2), 0.5)
        report = identity_check(model, C12, 1, method="quadrature", n_nodes=8)
        assert report.passed and type(model.n_sites) is int

    def test_integral_float_size_refused(self):
        with pytest.raises(TypeError, match="n_spins must be an integer, got 3.0"):
            sk_model(3.0, 0.5)

    def test_fractional_size_refused(self):
        with pytest.raises(TypeError, match="n_spins must be an integer, got 2.5"):
            sk_model(2.5, 0.5)

    def test_fractional_site_count_of_a_direct_construction_refused(self):
        with pytest.raises(TypeError, match="n_sites must be an integer, got 3.0"):
            lab.ModelInstance(kind="sk", beta=0.5, n_sites=3.0)

    def test_fractional_lattice_side_refused(self):
        with pytest.raises(TypeError, match="dims must be an integer, got 2.7"):
            ea_model((2.7, 2), 0.5)

    def test_fractional_seed_refused(self):
        with pytest.raises(TypeError, match="seed must be an integer, got 1.9"):
            wick_baseline_check(sk_model(2, 0.5), 10, 1.9)

    def test_bool_n_reports_the_integer(self):
        from overlap_lab import exprio

        report = identity_check(sk_model(2, 0.5), C12, True, method="quadrature", n_nodes=8)
        assert type(report.n) is int and report.n == 1
        assert "Delta^1" in report.rows[0].label
        assert exprio.from_json(exprio.to_json(report)) == report

    def test_fractional_node_and_sample_counts_refused(self):
        model = sk_model(2, 0.5)
        with pytest.raises(TypeError, match="n_nodes must be an integer, got 8.0"):
            quadrature_expectation(model, C12, n_nodes=8.0)
        with pytest.raises(TypeError, match="n_samples must be an integer, got 16.0"):
            quenched_expectation(model, C12, 16.0, 0)
        with pytest.raises(TypeError, match="order must be an integer, got 2.0"):
            fd_derivative(model, C12, 2.0, n_samples=16)


class TestSpinFlipQuotient:
    """The lab sums over the configurations whose last spin is +1.  These
    references sum over all 2^N spin tuples with the pointwise kernels and
    plain exponentials, without the model's bond products."""

    @staticmethod
    def brute_force(model, couplings, lam, field_couplings, g):
        configs = list(product((-1, 1), repeat=model.n_sites))
        if model.kind == "sk":
            def bond_sum(j, s):
                return sum(j[a][b] * s[a] * s[b] for a in range(len(s)) for b in range(len(s)))

            def kernel(s, t):
                return overlap_sk(s, t, model.n_sites)
        else:
            def bond_sum(j, s):
                return sum(x * s[a] * s[b] for x, (a, b) in zip(j, model.bonds))

            def kernel(s, t):
                return link_overlap_ea(s, t, model.bonds)
        root = math.sqrt(len(model.bonds))
        exponents = [model.beta * bond_sum(couplings, s)
                     + lam * bond_sum(field_couplings, s) / root for s in configs]
        top = max(exponents)
        boltzmann = [math.exp(x - top) for x in exponents]
        z = math.fsum(boltzmann)
        w = [b / z for b in boltzmann]
        q = [[kernel(s, t) for t in configs] for s in configs]
        r = len(g.support)
        return math.fsum(
            math.prod(w[k] for k in tup) * math.prod(q[tup[i - 1]][tup[j - 1]] ** m
                                                     for i, j, m in g.edges)
            for tup in product(range(len(configs)), repeat=r))

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("text", ["{1,2}{2,3}{1,3}^2", "{1,2}{2,3}{3,4}"])
    @pytest.mark.parametrize("model_fn", [lambda: sk_model(3, 0.9), lambda: ea_model((4,), 0.9),
                                          lambda: ea_model((2, 2), 0.9)],
                             ids=["sk3", "ea4", "ea2x2"])
    def test_replica_moment_is_the_full_configuration_sum(self, model_fn, text, lam):
        model = model_fn()
        rng = np.random.default_rng(len(text) + model.n_sites)
        j, jp = rng.standard_normal((2, *model.coupling_shape))
        g = parse_monomial(text)
        got = replica_moment(model, j, lam, jp, g)
        assert got == pytest.approx(self.brute_force(model, j.tolist(), lam, jp.tolist(), g),
                                    rel=1e-13, abs=0)

    @pytest.mark.parametrize("model_fn", [
        *(lambda n=n: sk_model(n, 0.5) for n in range(2, 7)),
        *(lambda d=d: ea_model(d, 0.5) for d in [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3)]),
    ])
    def test_bond_product_rows_are_the_flip_classes(self, model_fn):
        # The bond graph is connected, so the rows are pairwise distinct, and
        # every configuration of all 2^N shares its row with one of them.
        model = model_fn()
        rows = {row.tobytes() for row in model.bond_products}
        assert len(rows) == model.n_configs == 2 ** (model.n_sites - 1)
        assert np.all(model.spins[:, -1] == 1.0)
        full = np.array(list(product((-1.0, 1.0), repeat=model.n_sites)))
        left, right = np.array(model.bonds).T
        assert {row.tobytes() for row in full[:, left] * full[:, right]} == rows


class TestGibbsWeights:
    def test_infinite_temperature_uniform(self):
        model = sk_model(3, 0.0)
        j = np.zeros((3, 3))
        w = gibbs_weights(model, j)
        assert w.shape == (4,) and np.all(w == 1.0 / 4.0)  # 2^(N-1) configurations

    def test_normalization_random(self):
        model = sk_model(4, 0.7)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = gibbs_weights(
                model, rng.standard_normal((4, 4)), 0.3, rng.standard_normal((4, 4))
            )
            assert abs(w.sum() - 1.0) < 1e-14
            assert np.all(w >= 0.0)

    def test_n2_depends_on_coupling_sum_only(self):
        model = sk_model(2, 0.9)
        j1 = np.array([[5.0, 0.7], [0.5, -3.0]])
        j2 = np.array([[0.0, 0.2], [1.0, 0.0]])  # same J12 + J21
        assert np.allclose(
            gibbs_weights(model, j1), gibbs_weights(model, j2), atol=1e-12
        )

    def test_lambda_needs_field(self):
        model = sk_model(2, 0.5)
        with pytest.raises(ValueError):
            gibbs_weights(model, np.zeros((2, 2)), 0.3, None)

    def test_one_measure_is_a_row_of_the_batched_softmax(self):
        # 1-D input: the same max, sum and normalisation as a single row
        model = sk_model(4, 0.7)
        j, jp = np.random.default_rng(3).standard_normal((2, 4, 4))
        w = gibbs_weights(model, j, 0.3, jp)
        x = model.beta * lab._neg_energy(model, j) + 0.3 * lab._field_values(model, jp)
        e = np.exp(x - x.max())
        assert np.array_equal(w, e / e.sum())
        assert lab._softmax is lab._softmax_last

    def test_non_finite_weights_raise_value_error(self):
        x = np.zeros((2, 4))
        x[1, 2] = np.nan
        with pytest.raises(ValueError, match="Gibbs weights"):
            lab._softmax_last(x)

    # numpy's pairwise sum changes order at 8 and 128 values per row.
    @pytest.mark.parametrize("nc", [*range(2, 10), 16, 24, 32, 127, 128, 129, 256, 1024])
    def test_row_max_is_the_last_axis_max_bit_for_bit(self, nc):
        rng = np.random.default_rng(nc)
        x = 30.0 * rng.standard_normal((37, 3, nc))
        x[0, 0] = 0.0
        x[0, 1, ::2] = -0.0  # signed zeros tie for the max
        x[1, 0, -1] = 1e300
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        ref = (e / e.sum(axis=-1, keepdims=True)).tobytes()
        assert lab._softmax_last(x).tobytes() == ref
        # the config-major view that _gibbs_grid passes
        w = lab._softmax_last(np.ascontiguousarray(np.moveaxis(x, -1, 0)).transpose(1, 2, 0))
        assert w.flags.c_contiguous and w.tobytes() == ref

    # (model, nodes, lambda nodes) of the benchmark's chunks: the SK N=2
    # oracle's identities at n=1 and n=2 and its estimate, then the Monte
    # Carlo identities on 4 to 32 configurations.
    @pytest.mark.parametrize("model_fn, nodes, n_lams", [
        (lambda: sk_model(2, 0.8), 195, 21),
        (lambda: sk_model(2, 0.8), 372, 11),
        (lambda: sk_model(2, 0.8), 4096, 1),
        (lambda: sk_model(3, 0.5), 97, 21),
        (lambda: ea_model((4,), 0.5), 48, 21),
        (lambda: sk_model(5, 0.5), 24, 21),
        (lambda: ea_model((6,), 0.5), 12, 21),
    ])
    def test_gibbs_grid_is_the_row_major_softmax_bit_for_bit(self, model_fn, nodes, n_lams):
        model = model_fn()
        draws = np.random.default_rng(nodes).standard_normal(
            (nodes, 2, *model.coupling_shape))
        lams = np.linspace(-0.2, 0.3, n_lams)
        x = model.beta * lab._neg_energy(model, draws[:, 0])
        h = lab._field_values(model, draws[:, 1])
        z = x[:, None, :] + lams[:, None] * h[:, None, :]
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        w = lab._gibbs_grid(model, draws, lams.tolist())
        assert w.flags.c_contiguous
        assert w.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()

    # A 14-site run's chunks hold one or two nodes, each measure a row of
    # 2^13 configurations; added in sequence, such a row errs past 1e-14.
    def test_a_valid_measure_of_fourteen_sites_is_not_refused(self):
        x = 0.01 * np.random.default_rng(43851).standard_normal((2, 8192))
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        assert lab._softmax_last(x).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()

    @pytest.mark.parametrize("nc", [2, 4, 8, 64])
    def test_a_minus_inf_below_the_row_max_is_accepted(self, nc):
        x = np.random.default_rng(nc).standard_normal((3, nc))
        x[1, 0] = -np.inf
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        w = lab._softmax_last(x)
        assert w[1, 0] == 0.0
        assert w.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()

    def test_the_sum_check_refuses_what_a_finiteness_check_would(self):
        # Every normalized weight is in [0, 1] or NaN, and a NaN makes its
        # row's sum NaN: the sum's check alone refuses the rows that a
        # separate finiteness pass over the weights refused.
        rng = np.random.default_rng(29)
        specials = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308])
        refused = 0
        for _ in range(2000):
            nc = int(rng.integers(2, 129))
            x = rng.standard_normal((1, nc)) * 10.0 ** rng.uniform(0, 3)
            k = int(rng.integers(0, 4))
            x[0, rng.integers(0, nc, k)] = rng.choice(specials, k)
            with np.errstate(all="ignore"):
                e = np.exp(x - x.max(axis=-1, keepdims=True))
                ref = e / e.sum(axis=-1, keepdims=True)
                bad = not (np.isfinite(ref).all() and abs(ref.sum() - 1.0) < 1e-14)
                try:
                    w = lab._softmax_last(x)
                except ValueError:
                    refused += 1
                    assert bad
                else:
                    assert not bad and w.tobytes() == ref.tobytes()
        assert 0 < refused < 2000

    @pytest.mark.parametrize("nc", [4, 8, 64, 1024])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf row"])
    def test_non_finite_rows_raise_at_every_width(self, nc, bad):
        x = np.random.default_rng(1).standard_normal((5, 2, nc))
        if bad == "-inf row":
            x[3, 1] = -np.inf
        else:
            x[3, 1, nc // 2] = float(bad)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="Gibbs weights"):
            lab._softmax_last(x)


class TestReplicaMoment:
    def test_empty_monomial_gives_one(self):
        model = sk_model(3, 0.5)
        rng = np.random.default_rng(1)
        val = replica_moment(
            model, rng.standard_normal((3, 3)), 0.0, None, parse_monomial("1")
        )
        assert val == 1.0

    def test_beta0_value_is_one_over_n(self):
        for n in (2, 3, 4):
            model = sk_model(n, 0.0)
            val = replica_moment(model, np.zeros((n, n)), 0.0, None, C12)
            assert abs(val - 1.0 / n) < 1e-12

    def test_isomorphic_inputs_bitwise_identical(self):
        model = sk_model(3, 0.8)
        rng = np.random.default_rng(7)
        j = rng.standard_normal((3, 3))
        a = replica_moment(model, j, 0.0, None, make_multigraph([(1, 2, 1), (2, 3, 1)]))
        b = replica_moment(model, j, 0.0, None, make_multigraph([(2, 5, 1), (5, 9, 1)]))
        assert a == b

    def test_budget_refusal_names_requirement(self):
        # K4's widest steps on 2,048 configurations cost 2048^4 = 2^44 each
        model = ea_model((3, 4), 0.5)
        k4 = make_multigraph([(i, j, 1) for i, j in combinations(range(1, 5), 2)])
        with pytest.raises(BudgetError, match=r"2\^44\.0 work units"):
            replica_moment(model, np.zeros(len(model.bonds)), 0.0, None, k4)

    def test_models_with_equal_configuration_counts_keep_their_overlaps(self):
        # SK N=2 and the two-site EA chain both have 2 configurations, so they
        # share compiled step programs, but not bonds or overlap powers
        sk, ea = sk_model(2, 0.6), ea_model((2,), 0.6)
        poly = big_delta(GraphPolynomial.monomial(C12))
        j_sk = np.random.default_rng(2).standard_normal((2, 2))
        j_ea = np.random.default_rng(3).standard_normal(1)

        def both():
            return [replica_moment(model, j, 0.0, None, g)
                    for g, _ in poly.items() for model, j in ((sk, j_sk), (ea, j_ea))]

        hits = lab._compiled.cache_info().hits
        warm = both()
        assert lab._compiled.cache_info().hits - hits >= len(poly)  # the chain's
        lab._compiled.cache_clear()
        fresh = both()
        assert warm == fresh
        assert warm[0::2] != warm[1::2]

    def test_legs_rejected(self):
        model = sk_model(2, 0.5)
        with pytest.raises(ValueError):
            replica_moment(
                model, np.zeros((2, 2)), 0.0, None, make_multigraph([], [(1, 2)])
            )


class TestQuenchedExpectation:
    def test_beta0_sk_matches_oracle_exactly(self):
        for n in (2, 3, 4):
            model = sk_model(n, 0.0)
            est = quenched_expectation(model, C12, 50, 3)
            oracle = beta0_oracle("sk", n, GraphPolynomial.monomial(C12))
            assert est.stderr == 0.0
            assert abs(est.mean - float(oracle)) < 1e-12
            assert float(oracle) == 1.0 / n

    def test_beta0_ea_link_overlap_vanishes(self):
        model = ea_model((4,), 0.0)
        est = quenched_expectation(model, C12, 30, 5)
        oracle = beta0_oracle("ea", model.bonds, GraphPolynomial.monomial(C12))
        assert oracle == 0
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_beta0_polynomial_matches_oracle(self):
        model = sk_model(3, 0.0)
        poly = parse_polynomial("2{1,2}^2 - {1,2}{1,3} + 3{1,2}{3,4} - 1")
        est = quenched_expectation(model, poly, 10, 1)
        oracle = beta0_oracle("sk", 3, poly)
        assert abs(est.mean - float(oracle)) < 1e-12

    def test_mc_matches_quadrature_at_finite_beta(self):
        model = sk_model(2, 0.5)
        mc = quenched_expectation(model, C12, 20000, 7)
        quad = quadrature_expectation(model, C12)
        assert abs(mc.mean - quad.mean) <= 3 * mc.stderr

    def test_linearity_in_the_polynomial(self):
        model = sk_model(2, 0.5)
        p = parse_polynomial("{1,2} + {1,2}")
        one = quenched_expectation(model, C12, 500, 11)
        two = quenched_expectation(model, p, 500, 11)
        assert two.mean == pytest.approx(2 * one.mean, abs=1e-13)

    def test_legs_rejected(self):
        with pytest.raises(ValueError):
            quenched_expectation(sk_model(2, 0.5), parse_monomial("{1}{1,2}"), 10, 0)

    def test_node_value_past_the_float_range_refused(self):
        # each coefficient is a float, their sum per node is not
        big = 17 * 10**307
        p = parse_polynomial(f"{big} + {big}{{1,2}}")
        with pytest.raises(ValueError, match="a disorder node gives a value that is not finite"):
            quenched_expectation(sk_model(2, 0.5), p, 4, 0)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            quenched_expectation(sk_model(2, 0.5), C12, 4, -1)

    @pytest.mark.parametrize("entry", ["replica_moment", "quenched_expectation", "fd_derivative"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_outside_the_float_range_refused(self, entry, sign):
        model = sk_model(2, 0.5)
        p = GraphPolynomial([(C12, sign * 10**400), (parse_monomial("1"), 1)])
        run = {"replica_moment": lambda: replica_moment(model, np.zeros((2, 2)), 0.0, None, p),
               "quenched_expectation": lambda: quenched_expectation(model, p, 4, 0),
               "fd_derivative": lambda: fd_derivative(model, p, 2, n_samples=4)}[entry]
        with pytest.raises(ValueError, match=r"coefficient of Multigraph\(edges=\[\(1, 2, 1\)\], "
                                             r"legs=\[\]\), of 1329 bits, is outside the float range"):
            run()


class TestDeformedExpectation:
    def test_lambda_zero_bitwise_equals_quenched(self):
        model = sk_model(3, 0.5)
        a = quenched_expectation(model, C12, 400, 42)
        b = deformed_expectation(model, C12, 0.0, 400, 42)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_antithetic_evenness_bitwise(self):
        model = sk_model(3, 0.5)
        plus = deformed_expectation(model, C12, 0.35, 400, 9)
        minus = deformed_expectation(model, C12, -0.35, 400, 9, antithetic_h=True)
        assert (plus.mean, plus.stderr) == (minus.mean, minus.stderr)

    def test_small_lambda_shift_is_quadratic(self):
        model = sk_model(2, 0.5)
        f0 = quadrature_expectation(model, C12, 0.0).mean
        f1 = quadrature_expectation(model, C12, 0.01).mean
        f2 = quadrature_expectation(model, C12, 0.02).mean
        ratio = (f2 - f0) / (f1 - f0)
        assert 3.5 < ratio < 4.5  # doubling lambda quadruples the shift

    def test_deterministic_across_reruns(self):
        model = ea_model((4,), 0.5)
        runs = [deformed_expectation(model, C12, 0.2, 300, 21) for _ in range(3)]
        assert len({(r.mean, r.stderr) for r in runs}) == 1


class TestQuadrature:
    def test_beta0_exact_half(self):
        model = sk_model(2, 0.0)
        est = quadrature_expectation(model, C12)
        assert abs(est.mean - 0.5) < 1e-12
        assert est.stderr == 0.0

    def test_node_doubling_converged(self):
        model = sk_model(2, 0.5)
        est = quadrature_expectation(model, C12)
        assert est.truncation is not None and est.truncation < 1e-10

    def test_golden_deformed_value(self):
        model = sk_model(2, 0.5)
        est = quadrature_expectation(model, C12, 0.3)
        assert est.mean == pytest.approx(GOLDEN_SK2_QUAD_B05_L03, abs=1e-9)

    def test_mc_cross_oracle_at_golden_point(self):
        model = sk_model(2, 0.5)
        mc = deformed_expectation(model, C12, 0.3, 20000, 17)
        assert abs(mc.mean - GOLDEN_SK2_QUAD_B05_L03) <= 3 * mc.stderr

    def test_lambda_zero_integrates_the_coupling_axis_only(self, monkeypatch):
        # at lam = 0 the field cancels, so the v axis of the deformed grid
        # only multiplies the integral by its weights' sum
        model = sk_model(2, 0.7)
        poly = big_delta(GraphPolynomial.monomial(C12))
        two_axes = lab._deformed(
            model, poly, 0.0, lab._rule("quadrature", model, None, 0, 64), False)
        sizes = []
        evaluate = lab._evaluate

        def recording(rule, *args):
            sizes.append(rule.size)
            return evaluate(rule, *args)

        monkeypatch.setattr(lab, "_evaluate", recording)
        est = quadrature_expectation(model, poly)
        assert sizes == [64, 128]  # the grid, then its doubling for truncation
        assert est.mean == pytest.approx(two_axes.mean, rel=0, abs=1e-14)
        assert est.truncation == pytest.approx(two_axes.truncation, rel=0, abs=1e-14)

    def test_oversized_grid_refused_before_any_rule(self, monkeypatch):
        def fail(*args):
            pytest.fail("built a Gauss-Hermite rule")

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", fail)
        monkeypatch.setattr(lab, "_hermgauss", fail)
        with pytest.raises(BudgetError):
            quadrature_expectation(sk_model(2, 0.5), C12, n_nodes=8192)
        with pytest.raises(BudgetError):
            quadrature_expectation(sk_model(2, 0.5), C12, 0.3, n_nodes=8192)

    def test_doubled_grid_refused_before_the_grid_runs(self, monkeypatch):
        # The truncation's doubled grid is the larger run: with a budget that
        # admits the 64-node grid only, nothing is evaluated.
        model = sk_model(2, 0.5)
        units, check = {}, lab._check_budget

        def recording(what, n, nbytes):
            units[what.split()[0]] = n
            return check(what, n, nbytes)

        monkeypatch.setattr(lab, "_check_budget", recording)
        quadrature_expectation(model, C12)
        monkeypatch.setattr(lab, "LAB_WORK_BUDGET", units["64"])
        monkeypatch.setattr(lab, "_evaluate", lambda *args: pytest.fail("evaluated a grid"))
        with pytest.raises(BudgetError, match="^128 quadrature nodes"):
            quadrature_expectation(model, C12)

    def test_cached_rules_are_read_only(self):
        nodes, weights = lab._hermgauss(16)
        assert lab._hermgauss(16)[0] is nodes
        for a in (nodes, weights):
            with pytest.raises(ValueError):
                a[0] = 1.0
        with pytest.raises(ValueError):
            weights *= 2.0
        assert math.isclose(weights.sum(), math.sqrt(math.pi), rel_tol=1e-14)

    @pytest.mark.parametrize("run", [
        lambda: identity_check(sk_model(3, 0.5), C12, 1, method="quadrature"),
        lambda: quadrature_expectation(sk_model(3, 0.5), C12, 0.3),
        lambda: wick_baseline_check(ea_model((2, 3), 0.5), method="quadrature"),
    ], ids=["sk3-identity", "sk3-deformed-estimate", "ea2x3-baseline"])
    def test_over_budget_grid_refused_before_any_draw_or_weights(self, monkeypatch, run):
        # Any model runs whose grid the lab budget admits; the SK N=3
        # identity at 64 nodes has 64^6 nodes, and its weights alone would
        # take 2^39 bytes.
        def fail(*args):
            pytest.fail("drew a node or built the grid's weights")

        monkeypatch.setattr(lab._GaussHermite, "draws", fail)
        monkeypatch.setattr(lab._GaussHermite, "weights", property(fail))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="quadrature nodes"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_doubled_grid_counts_the_base_grid_weights(self, monkeypatch):
        # While the doubled grid runs, the base grid keeps its 64 weights: a
        # budget between the doubled run's bytes without and with them
        # refuses it before either grid is evaluated.
        model = sk_model(2, 0.5)
        nbytes, check = {}, lab._check_budget

        def recording(what, units, n):
            nbytes.setdefault(what.split()[0], []).append(n)
            return check(what, units, n)

        monkeypatch.setattr(lab, "_check_budget", recording)
        quadrature_expectation(model, C12)
        with_base, alone = nbytes["128"]  # the check in _estimate, then in _evaluate
        assert with_base - alone == 8 * 64
        monkeypatch.setattr(lab, "LAB_MEMORY_BUDGET", alone + 8 * 32)
        monkeypatch.setattr(lab, "_evaluate", lambda *args: pytest.fail("evaluated a grid"))
        with pytest.raises(BudgetError, match="^128 quadrature nodes"):
            quadrature_expectation(model, C12)

    def test_run_bytes_count_the_grid_weights(self, monkeypatch):
        # The grid holds one weight per node, which Monte Carlo's equal
        # weights do not: 8 bytes per node more at equal node counts.
        model = sk_model(2, 0.5)
        nbytes, check = {}, lab._check_budget

        def recording(what, units, n):
            nbytes[what.split(" on ")[0]] = n
            return check(what, units, n)

        monkeypatch.setattr(lab, "_check_budget", recording)
        quadrature_expectation(model, C12, n_nodes=8)
        quenched_expectation(model, C12, 8, 0)
        assert nbytes["8 quadrature nodes"] - nbytes["8 mc nodes"] == 8 * 8


class TestDerivedAxes:
    """The Gauss-Hermite grid reads its axes off the model: one N(0, count)
    axis per distinct column of ``bond_products``, on the first bond with
    that column; an exponent drops the constant column, a baseline bracket
    keeps it, and an unread block has no axis."""

    @staticmethod
    def assert_axes(model, blocks, expected, n_nodes=4):
        rule = lab._GaussHermite(model, blocks, n_nodes)
        assert rule.axes == expected
        draws = rule.draws(0, rule.size, (len(blocks), *model.coupling_shape))
        for pos, (count, n) in expected.items():
            # the nodes of N(0, count); 2 * hermgauss for a pair sum
            values = math.sqrt(2 * count) * lab._hermgauss(n)[0]
            assert np.array_equal(np.unique(draws[(slice(None), *pos)]), values)
            draws[(slice(None), *pos)] = 0.0
        assert not draws.any()  # every other coupling is zero

    def test_sk2_axes_are_the_retired_tables(self):
        model, k = sk_model(2, 0.5), lab._BASELINE_FIELD_NODES
        self.assert_axes(model, ("exponent", "exponent"), {(0, 0, 1): (2, 4), (1, 0, 1): (2, 4)})
        self.assert_axes(model, ("exponent", None), {(0, 0, 1): (2, 4)})
        self.assert_axes(model, ("exponent", "bracket", "bracket"), {
            (0, 0, 1): (2, 4), (1, 0, 0): (2, k), (1, 0, 1): (2, k), (2, 0, 0): (2, k),
            (2, 0, 1): (2, k)})

    def test_sk3_has_three_pair_sums(self):
        # J_ij + J_ji per pair i < j; the diagonal is the constant column
        self.assert_axes(sk_model(3, 0.5), ("exponent", None),
                         {(0, 0, 1): (2, 4), (0, 0, 2): (2, 4), (0, 1, 2): (2, 4)})

    def test_ea_ring_of_three_has_one_axis_per_bond(self):
        self.assert_axes(ea_model((3,), 0.5), ("exponent", None),
                         {(0, 0): (1, 4), (0, 1): (1, 4), (0, 2): (1, 4)})

    def test_sk3_estimate_converges_and_agrees_with_monte_carlo(self):
        model = sk_model(3, 0.5)
        est = quadrature_expectation(model, C12)
        assert est.samples == 64 and est.truncation < 1e-10
        mc = quenched_expectation(model, C12, 20000, 1)
        assert abs(mc.mean - est.mean) <= 3 * mc.stderr

    @pytest.mark.parametrize("model_fn", [lambda: sk_model(3, 0.5), lambda: ea_model((3,), 0.5)],
                             ids=["sk3", "ea3"])
    def test_identities_hold_beyond_two_spins(self, model_fn):
        rep = identity_check(model_fn(), C12, 1, method="quadrature", n_nodes=8, tol=1e-6)
        assert rep.passed and len(rep.rows) == 2, rep.rows


class TestDeformationConfig:
    def test_asymmetric_grid_rejected(self):
        with pytest.raises(ValueError):
            DeformationConfig(lambda_grid=(0.05, 0.1, -0.1))

    def test_zero_in_grid_rejected(self):
        with pytest.raises(ValueError):
            DeformationConfig(lambda_grid=(0.0, 0.1, -0.1))

    def test_non_halving_grid_rejected(self):
        with pytest.raises(ValueError):
            DeformationConfig(lambda_grid=(0.3, -0.3, 0.1, -0.1))

    def test_magnitudes_descending(self):
        cfg = DeformationConfig()
        assert cfg.magnitudes == (0.2, 0.1, 0.05)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="lambda grid is empty"):
            DeformationConfig(lambda_grid=())

    def test_halving_within_the_slack_accepted(self):
        mid = 0.1 * (1 + 1e-13)
        cfg = DeformationConfig(lambda_grid=(0.2, -0.2, mid, -mid, 0.05, -0.05))
        assert cfg.magnitudes == (0.2, mid, 0.05)
        # orders 3 and 4 step 2h from every magnitude but the largest
        for order in (3, 4):
            nodes = lab._stencil_nodes(cfg, order, 0.0)
            assert {abs(node) for node in nodes} == {0.0, 0.05, 0.1, mid, 2 * mid}

    def test_halving_off_by_1e_9_refused(self):
        mid = 0.1 * (1 + 1e-9)
        with pytest.raises(ValueError, match="grid magnitudes must halve"):
            DeformationConfig(lambda_grid=(0.2, -0.2, mid, -mid, 0.05, -0.05))


class TestFdDerivative:
    def test_constant_function_differentiates_to_exact_zero(self):
        model = sk_model(2, 0.5)
        est = fd_derivative(model, parse_monomial("1"), 2, n_samples=25, seed=1)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_quadrature_grid_halving_stable(self):
        model = sk_model(2, 0.5)
        a = DeformationConfig(lambda_grid=(0.2, -0.2, 0.1, -0.1, 0.05, -0.05))
        b = DeformationConfig(lambda_grid=(0.1, -0.1, 0.05, -0.05, 0.025, -0.025))
        fa = fd_derivative(model, C12, 2, a, method="quadrature")
        fb = fd_derivative(model, C12, 2, b, method="quadrature")
        assert abs(fa.mean - fb.mean) < 1e-6

    def test_odd_order_vanishes_within_stderr(self):
        model = sk_model(3, 0.5)
        est = fd_derivative(model, C12, 1, n_samples=4000, seed=13)
        assert abs(est.mean) <= 3 * est.stderr

    def test_odd_order_quadrature_is_roundoff(self):
        model = sk_model(2, 0.5)
        est = fd_derivative(model, C12, 3, method="quadrature")
        assert abs(est.mean) < 1e-9

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            fd_derivative(sk_model(2, 0.5), C12, 5, n_samples=5, seed=0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'simpson'"):
            fd_derivative(sk_model(2, 0.5), C12, 2, method="simpson")

    # One Richardson step cancels the h^2 term of the error; a polynomial of
    # degree 6 has no h^4 term at orders 3 and 4, away from 0 too.
    @pytest.mark.parametrize("order", [3, 4])
    def test_high_orders_are_exact_on_a_sextic_away_from_zero(self, order):
        p = np.polynomial.Polynomial([0.4, -1.3, 0.8, 0.5, -0.9, 0.7, -0.3])
        coeffs = lab._stencil_nodes(DeformationConfig(), order, 0.3)
        est = sum(c * (p(node) - p(0.3)) for node, c in coeffs.items())
        assert abs(est - p.deriv(order)(0.3)) <= sum(map(abs, coeffs.values())) * 1e-14

    @pytest.mark.parametrize("order", [3, 4])
    def test_one_magnitude_is_too_small_for_high_orders(self, order):
        grid = DeformationConfig(lambda_grid=(0.1, -0.1))
        with pytest.raises(ValueError, match=f"grid too small for derivative order {order}"):
            fd_derivative(sk_model(2, 0.5), C12, order, grid, n_samples=5)

    def test_overflowing_stencil_coefficient_rejected(self):
        # the step 1e-77 gives the coefficient 6 / 1e-308, past the float range
        grid = DeformationConfig(lambda_grid=(2e-77, -2e-77, 1e-77, -1e-77))
        with pytest.raises(ValueError, match="order-4 stencil at 0.0 has a coefficient that is not"):
            fd_derivative(sk_model(2, 0.5), C12, 4, grid, n_samples=5)

    def test_collapsed_stencil_rejected(self):
        # lam0 +- 0.2 round to lam0 at 1e17; 1e-320 squared underflows to 0.
        model = sk_model(2, 0.5)
        with pytest.raises(ValueError, match="collapses the order-1 stencil"):
            fd_derivative(model, C12, 1, at_lambda=1e17, method="quadrature", n_nodes=8)
        tiny = DeformationConfig(lambda_grid=(1e-320, -1e-320, 5e-321, -5e-321))
        with pytest.raises(ValueError, match="collapses the order-2 stencil"):
            fd_derivative(model, C12, 2, tiny, method="quadrature", n_nodes=8)


class TestIdentityCheck:
    def test_quadrature_n1_tight(self):
        model = sk_model(2, 0.5)
        rep = identity_check(model, C12, 1, method="quadrature")
        assert rep.passed
        main, lemma = rep.rows
        assert abs(main.diff) <= 1e-6
        assert abs(lemma.diff) <= 1e-6

    def test_quadrature_n2(self):
        model = sk_model(2, 0.5)
        cfg = DeformationConfig(
            lambda_grid=tuple(s * m for m in (0.0125, 0.025, 0.05, 0.1, 0.2)
                              for s in (1, -1))
        )
        rep = identity_check(model, C12, 2, method="quadrature", config=cfg, tol=1e-6)
        assert rep.passed and abs(rep.rows[0].diff) <= 1e-6

    def test_lemma_at_lambda_zero_both_sides_vanish(self):
        model = sk_model(2, 0.5)
        rep = identity_check(model, C12, 1, method="quadrature", lemma_lambda=0.0)
        lemma = rep.rows[1]
        assert lemma.rhs == 0.0
        assert abs(lemma.lhs) < 1e-9

    def test_mc_sk3_with_crn(self):
        model = sk_model(3, 0.5)
        rep = identity_check(model, C12, 1, n_samples=20000, seed=101)
        assert rep.rows[0].passed
        # CRN must make the difference far tighter than the raw sides
        assert rep.rows[0].diff_stderr < rep.rows[0].lhs_stderr

    def test_mc_ea_ring(self):
        model = ea_model((4,), 0.5)
        rep = identity_check(model, C12, 1, n_samples=20000, seed=55)
        assert rep.passed

    def test_deterministic_across_reruns(self):
        model = sk_model(3, 0.5)
        reps = [
            identity_check(model, C12, 1, n_samples=300, seed=4) for _ in range(3)
        ]
        assert len({(r.rows[0].lhs, r.rows[0].rhs, r.rows[0].diff) for r in reps}) == 1

    def test_beta0_rhs_is_disorder_free(self):
        # at infinite temperature the undeformed moment ignores the couplings,
        # while the deformed side still fluctuates with the field draw
        model = sk_model(3, 0.0)
        rep = identity_check(model, C12, 1, n_samples=3000, seed=2, lemma_lambda=None)
        assert rep.rows[0].rhs_stderr == 0.0
        assert rep.rows[0].passed

    def test_budget_refusal(self, monkeypatch):
        # about 2^26 work units a sample on 2,048 configurations
        from overlap_lab import streams

        monkeypatch.setattr(streams._MonteCarlo, "draws",
                            lambda *args: pytest.fail("drew nodes"))
        model = ea_model((3, 4), 0.5)
        t0 = time.perf_counter()
        with pytest.raises(BudgetError, match="work units"):
            identity_check(model, C12, 1, n_samples=40000, seed=0)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("model_fn, text, n, samples", [
        (lambda: ea_model((2, 4), 0.5), "{1,2}{3,4}", 1, 200),
        (lambda: sk_model(5, 0.5), "{1,2}{3,4}", 2, 2000),
    ], ids=["ea2x4-n1", "sk5-n2"])
    def test_passes_past_the_old_replica_bound(self, model_fn, text, n, samples):
        # the joint-state count (2^N)^R refused both; their cost is small
        rep = identity_check(model_fn(), parse_monomial(text), n, n_samples=samples, seed=0)
        assert rep.passed, rep.rows

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_dishonest_tolerance_rejected(self, tol):
        model = sk_model(2, 0.5)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            identity_check(model, C12, 1, method="quadrature", n_nodes=8, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            wick_baseline_check(model, method="quadrature", n_nodes=8, tol=tol)

    def test_collapsed_stencil_rejected(self):
        model = sk_model(2, 0.5)
        with pytest.raises(ValueError, match="collapses the order-1 stencil at 1e"):
            identity_check(model, C12, 1, method="quadrature", n_nodes=8, lemma_lambda=1e17)
        tiny = DeformationConfig(lambda_grid=(1e-320, -1e-320, 5e-321, -5e-321))
        with pytest.raises(ValueError, match="collapses the order-2 stencil"):
            identity_check(model, C12, 1, method="quadrature", n_nodes=8, config=tiny)


FINE_GRID = DeformationConfig(
    lambda_grid=tuple(s * m for m in (0.0125, 0.025, 0.05, 0.1, 0.2) for s in (1, -1)))


class TestMirrorFold:
    """A rule whose nodes are mirror-symmetric in the field couplings, with
    equal weights, averages every function of the tilted measure to one
    value at lambda and -lambda; on such a rule the stencils run folded onto
    |lambda|.  Only the Gauss-Hermite grid claims the symmetry."""

    def test_hermgauss_nodes_and_weights_mirror_exactly(self):
        for n in range(1, lab.MAX_QUADRATURE_NODES + 1):
            x, w = lab._hermgauss(n)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n

    @pytest.mark.parametrize("blocks", [("exponent", "exponent"),
                                        ("exponent", "bracket", "bracket")],
                             ids=["deformed", "baseline"])
    @pytest.mark.parametrize("model_fn", [lambda: sk_model(2, 0.5), lambda: sk_model(3, 0.5),
                                          lambda: ea_model((3,), 0.5)],
                             ids=["sk2", "sk3", "ea3"])
    def test_grid_maps_onto_itself_under_field_negation(self, model_fn, blocks):
        model = model_fn()
        rule = lab._GaussHermite(model, blocks, 4)
        shape = (len(blocks), *model.coupling_shape)
        draws = rule.draws(0, rule.size, shape).reshape(rule.size, len(blocks), -1)
        mirrored = draws.copy()
        mirrored[:, 1:] *= -1.0
        draws, mirrored = (a.reshape(rule.size, -1) for a in (draws, mirrored))
        where = {row.tobytes(): k for k, row in enumerate(draws + 0.0)}  # -0.0 as 0.0
        image = [where[row.tobytes()] for row in mirrored + 0.0]
        assert sorted(image) == list(range(rule.size))
        assert np.array_equal(rule.weights[image], rule.weights)

    def test_only_gauss_hermite_claims_the_symmetry(self):
        # Monte Carlo keeps both signs of every stencil, so its pinned
        # payloads do not move.
        rules = {cls for module in package_modules() for cls in vars(module).values()
                 if isinstance(cls, type) and hasattr(cls, "draws")}
        assert {cls.__name__ for cls in rules} == {"_GaussHermite", "_MonteCarlo"}
        assert {cls.__name__ for cls in rules if cls.mirror_symmetric} == {"_GaussHermite"}

    # On the grid, lambda = 0 leaves the field grid: its measure runs once
    # per Hamiltonian node, 8 of them, beside 13 folded nodes per grid node.
    @pytest.mark.parametrize("method, count, signs, at_zero", [("quadrature", 13, {1.0}, 8),
                                                               ("mc", 19, {-1.0, 1.0}, 0)])
    def test_identity_evaluates_folded_nodes_on_symmetric_rules_only(
            self, monkeypatch, method, count, signs, at_zero):
        seen, untilted = [], []
        gibbs_grid, gibbs_weights = lab._gibbs_grid, lab.gibbs_weights

        def recording(model, draws, lams):
            seen.append(list(lams))
            return gibbs_grid(model, draws, lams)

        def recording_untilted(model, couplings):
            untilted.append(len(couplings))
            return gibbs_weights(model, couplings)

        monkeypatch.setattr(lab, "_gibbs_grid", recording)
        monkeypatch.setattr(lab, "gibbs_weights", recording_untilted)
        identity_check(sk_model(2, 0.5), C12, 1, 40, 3, method=method, config=FINE_GRID,
                       n_nodes=8)
        assert len(seen[0]) == count
        assert {math.copysign(1.0, lam) for lam in seen[0] if lam} == signs
        assert sum(untilted) == at_zero

    @pytest.mark.parametrize("beta", [0.2, 0.8, 1.6])
    @pytest.mark.parametrize("n, lemma", [(1, 0.2), (1, -0.2), (2, None)])
    def test_folded_rows_match_integrating_then_differencing(self, beta, n, lemma):
        # The reference averages E_lambda at every signed stencil node on its
        # own grid, then differences.
        model = sk_model(2, beta)
        rep = identity_check(model, C12, n, method="quadrature", config=FINE_GRID,
                             lemma_lambda=lemma, tol=1e-5)
        dpoly = GraphPolynomial.monomial(C12)
        for _ in range(n):
            dpoly = big_delta(dpoly)
        rows = [(lab._stencil_nodes(FINE_GRID, 2 * n, 0.0), 0.0, lab.double_factorial(2 * n - 1))]
        if lemma is not None:
            rows.append((lab._stencil_nodes(FINE_GRID, 1, lemma), lemma, lemma))
        assert len(rep.rows) == len(rows)
        for row, (coeffs, at, factor) in zip(rep.rows, rows):
            e = {lam: quadrature_expectation(model, C12, lam).mean for lam in coeffs}
            lhs = sum(c * (e[lam] - e[at]) for lam, c in coeffs.items())
            gain = sum(abs(c) for c in coeffs.values())
            assert abs(row.lhs - lhs) <= gain * 1e-14
            rhs = factor * quadrature_expectation(model, dpoly, at).mean
            assert row.rhs == pytest.approx(rhs, rel=1e-12, abs=0)

    @staticmethod
    def assert_zero_without_a_grid(monkeypatch, model, order):
        def fail(*args):
            pytest.fail("evaluated a grid")

        monkeypatch.setattr(lab, "_evaluate", fail)
        monkeypatch.setattr(lab, "_gibbs_grid", fail)
        est = fd_derivative(model, C12, order, method="quadrature")
        assert (est.mean, est.stderr, est.truncation) == (0.0, 0.0, 0.0)
        assert (est.samples, est.seed, est.method) == (64, 0, "quadrature")

    @pytest.mark.parametrize("order", [1, 3])
    def test_odd_order_quadrature_at_zero_is_exactly_zero(self, monkeypatch, order):
        # An odd stencil at 0 folds to all-zero weights, so the derivative is
        # 0.0 on the grid and on its doubling, and neither the 64^2 nor the
        # 128^2 grid is evaluated.
        self.assert_zero_without_a_grid(monkeypatch, sk_model(2, 0.5), order)

    def test_odd_order_quadrature_at_zero_on_sk3_needs_no_grid(self, monkeypatch):
        # SK N=3's doubled grid has 128^6 nodes, which the budget refuses.
        self.assert_zero_without_a_grid(monkeypatch, sk_model(3, 0.5), 1)


class TestHamiltonianSplit:
    """On a grid with field nodes, what does not read the field (the measure
    at lambda = 0, the stencil center, the rhs at 0, the baselines' weights
    and overlap moments) runs once per Hamiltonian node, and every field
    node reads it by index."""

    @staticmethod
    def reports(model, nodes):
        return [repr(identity_check(model, C12, n, method="quadrature", n_nodes=nodes,
                                    config=config))
                for n in (1, 2) for config in (None, FINE_GRID)] + [
            repr(wick_baseline_check(model, method="quadrature", n_nodes=nodes))]

    @pytest.mark.parametrize("model_fn, nodes", [
        (lambda: sk_model(2, 0.8), 64),
        (lambda: sk_model(3, 0.5), 8),
        (lambda: ea_model((4,), 0.5), 4),
    ], ids=["sk2", "sk3", "ea4"])
    def test_split_and_per_node_paths_are_bit_identical(self, monkeypatch, model_fn, nodes):
        model = model_fn()
        untilted = []
        gibbs_weights = lab.gibbs_weights

        def recording(model, couplings):
            untilted.append(len(couplings))
            return gibbs_weights(model, couplings)

        with monkeypatch.context() as patch:
            patch.setattr(lab, "gibbs_weights", recording)
            split = self.reports(model, nodes)
        # one untilted measure per Hamiltonian node and report, on no other node
        ham = lab._GaussHermite(model, ("exponent",), nodes).size
        assert sum(untilted) == 5 * ham
        monkeypatch.setattr(lab._GaussHermite, "field_nodes", 1)
        assert self.reports(model, nodes) == split

    # Gibbs measures per report on SK N=2 at 8 nodes per axis: the field grid
    # has 64 nodes, 8 of them per Hamiltonian node.
    @pytest.mark.parametrize("run, measures", [
        # 7 folded lambda nodes but 0, on the grid
        (lambda: identity_check(sk_model(2, 0.5), C12, 1, method="quadrature", n_nodes=8),
         7 * 64 + 8),
        # 0.05, 0.1 and 0.2
        (lambda: identity_check(sk_model(2, 0.5), C12, 2, method="quadrature", n_nodes=8),
         3 * 64 + 8),
        # 0.05, 0.1 and 0.2 on the 8- and the 16-node grid
        (lambda: fd_derivative(sk_model(2, 0.5), C12, 4, method="quadrature", n_nodes=8),
         3 * 64 + 8 + 3 * 256 + 16),
        # no tilted measure: each of the 8 x 16 nodes reads its Hamiltonian node's
        (lambda: wick_baseline_check(sk_model(2, 0.5), method="quadrature", n_nodes=8), 8),
        # SK N=3 at 4 nodes per axis: 4^3 Hamiltonian nodes
        (lambda: identity_check(sk_model(3, 0.5), C12, 2, method="quadrature", n_nodes=4),
         3 * 4**6 + 4**3),
        (lambda: wick_baseline_check(sk_model(3, 0.5), method="quadrature", n_nodes=4), 4**3),
    ], ids=["sk2-n1", "sk2-n2", "sk2-fd4", "sk2-baseline", "sk3-n2", "sk3-baseline"])
    def test_gibbs_measures_per_report(self, monkeypatch, run, measures):
        counted = [0]
        softmax = lab._softmax_last

        def counting(x):
            counted[0] += x.size // x.shape[-1]
            return softmax(x)

        monkeypatch.setattr(lab, "_softmax_last", counting)
        run()
        assert counted[0] == measures

    def test_monte_carlo_runs_every_sample_whole(self, monkeypatch):
        # Each sample draws its own field, so the rule has no field nodes:
        # no pre-run, and no node reads another's rows.
        run = lab._run

        def whole(rule, blocks, width, per_node, fill, model, base_rows=None):
            assert rule.method == "mc" and base_rows is None
            return run(rule, blocks, width, per_node, fill, model, base_rows)

        monkeypatch.setattr(lab, "_run", whole)
        identity_check(sk_model(2, 0.5), C12, 2, 20, 1)
        wick_baseline_check(sk_model(2, 0.5), 20, 1)

    def test_pre_run_counts_in_the_one_budget_check(self, monkeypatch):
        # The work and rows of the Hamiltonian pre-run add to the grid's, in
        # one check made before either runs.
        model = sk_model(2, 0.5)
        checks, check = [], lab._check_budget

        def recording(what, units, nbytes):
            checks.append((what, units, nbytes))
            return check(what, units, nbytes)

        monkeypatch.setattr(lab, "_check_budget", recording)
        identity_check(model, C12, 2, method="quadrature", n_nodes=8)
        ((what, units, nbytes),) = checks
        assert what.startswith("64 quadrature nodes")
        ev_g = lab._PolyMoments(model, GraphPolynomial.monomial(C12))
        ev_d = lab._PolyMoments(model, big_delta(big_delta(C12)))
        nc, nb = model.n_configs, len(model.bonds)
        grid = 64 * (2 * nc * nb + 3 * ev_g.flops)
        pre = 8 * (nc * nb + ev_g.flops + ev_d.flops)
        assert units == grid + pre
        monkeypatch.setattr(lab, "LAB_WORK_BUDGET", units - 1)
        monkeypatch.setattr(lab, "_run", lambda *args: pytest.fail("ran a grid"))
        with pytest.raises(BudgetError, match="^64 quadrature nodes"):
            identity_check(model, C12, 2, method="quadrature", n_nodes=8)


class TestWickBaselines:
    def test_mc_sk3(self):
        rep = wick_baseline_check(sk_model(3, 0.5), 20000, 23)
        assert rep.passed
        assert len(rep.rows) == 2

    def test_mc_ea_ring(self):
        rep = wick_baseline_check(ea_model((4,), 0.5), 10000, 29)
        assert rep.passed

    def test_quadrature_tight(self):
        rep = wick_baseline_check(sk_model(2, 0.5), method="quadrature")
        assert rep.passed
        for row in rep.rows:
            assert abs(row.diff) <= 1e-8

    def test_two_field_nodes_are_exact(self, monkeypatch):
        # the brackets are quadratic per field axis, so 2 Gauss-Hermite nodes
        # on each give the same integral as 4
        model = sk_model(2, 0.7)
        two = wick_baseline_check(model, method="quadrature")
        monkeypatch.setattr(lab, "_BASELINE_FIELD_NODES", 4)
        four = wick_baseline_check(model, method="quadrature")
        for a, b in zip(two.rows, four.rows):
            assert (a.lhs, a.rhs) == pytest.approx((b.lhs, b.rhs), rel=1e-14, abs=0)


class TestGaussianIbp:
    def test_fixed_family_within_three_sigma(self):
        rep = gaussian_ibp_check(20000, 31)
        assert rep.passed
        labels = [row.label for row in rep.rows]
        assert any("h1, l = 1" in s for s in labels)

    def test_polynomial_rows_have_known_means(self):
        rep = gaussian_ibp_check(50000, 37)
        linear = rep.rows[0]
        assert linear.rhs == pytest.approx(1.0, abs=1e-12)  # c11 * E(1)
        assert linear.lhs == pytest.approx(1.0, abs=5 * linear.lhs_stderr)
        square = rep.rows[1]
        assert abs(square.lhs) <= 4 * square.lhs_stderr  # E(h^3) = 0


class TestStabilityDeviation:
    def test_beta0_value_matches_independent_oracle(self):
        model = sk_model(3, 0.0)
        est = stability_deviation(model, C12, 20, 3)
        oracle = beta0_oracle("sk", 3, big_delta(GraphPolynomial.monomial(C12)))
        assert est.stderr == 0.0
        assert abs(est.mean - float(oracle)) < 1e-12
        # finite systems are visibly unstable at infinite temperature
        assert est.mean > 0.1

    def test_empty_graph_gives_exact_zero(self):
        est = stability_deviation(sk_model(2, 0.5), parse_monomial("1"), 10, 1)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_reported_not_asserted_at_finite_beta(self):
        est = stability_deviation(sk_model(3, 0.5), C12, 2000, 8)
        assert est.samples == 2000 and math.isfinite(est.mean)
