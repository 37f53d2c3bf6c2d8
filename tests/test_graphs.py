"""Graph core: construction, canonical labeling, algebra, pairings."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_matchings,
    count_matchings,
    multigraphs,
    polynomials,
    random_multigraph,
)
from overlap_lab import (
    EMPTY,
    GraphPolynomial,
    Multigraph,
    canonicalize,
    compose,
    edge,
    enumerate_pairings,
    leg,
    make_multigraph,
    poly_add,
    poly_mul,
    poly_scale,
    relabel,
)


class TestMakeMultigraph:
    def test_paper_style_example(self):
        g = make_multigraph([(1, 2, 2), (1, 3, 1)], [(2, 1)])
        assert g.grading == (3, 1)
        assert g.support == (1, 2, 3)
        assert g.edge_dict() == {(1, 2): 2, (1, 3): 1}
        assert g.leg_dict() == {2: 1}

    def test_empty_is_neutral_monomial(self):
        assert make_multigraph([], []) == EMPTY
        assert EMPTY.grading == (0, 0)
        assert EMPTY.support == ()

    def test_unordered_pairs_merge(self):
        g = make_multigraph([(2, 1, 1), (1, 2, 1)])
        assert g == make_multigraph([(1, 2, 2)])

    def test_repeated_legs_merge(self):
        g = make_multigraph([], [(3, 1), (3, 2)])
        assert g.leg_dict() == {3: 3}

    def test_loop_edge_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            make_multigraph([(2, 2, 1)])

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            make_multigraph([(1, 2, 0)])
        with pytest.raises(ValueError):
            make_multigraph([], [(1, -1)])

    def test_nonpositive_vertex_rejected(self):
        with pytest.raises(ValueError):
            make_multigraph([(0, 1, 1)])

    def test_raw_constructor_validates(self):
        with pytest.raises(ValueError):
            Multigraph(((2, 1, 1),), ())
        with pytest.raises(ValueError):
            Multigraph(((1, 2, 1), (1, 2, 1)), ())


class TestCanonicalize:
    def test_relabel_invariance_single_edge_pair(self):
        assert canonicalize(make_multigraph([(2, 3, 1), (1, 2, 1)])) == canonicalize(
            make_multigraph([(1, 2, 1), (1, 3, 1)])
        )

    def test_relabel_invariance_four_vertices(self):
        # the two chains differ only by which label carries the dangling edge
        a = make_multigraph([(1, 2, 1), (2, 3, 1), (1, 4, 1)])
        b = make_multigraph([(1, 2, 1), (2, 3, 1), (3, 4, 1)])
        assert canonicalize(a) == canonicalize(b)

    def test_idempotent_on_1000_random_graphs(self):
        rnd = random.Random(20240901)
        for _ in range(1000):
            g = random_multigraph(rnd)
            c = canonicalize(g)
            assert canonicalize(c) == c

    def test_support_is_contiguous(self):
        g = make_multigraph([(3, 7, 2)], [(9, 1)])
        c = canonicalize(g)
        assert c.support == tuple(range(1, len(c.support) + 1))

    def test_exhaustive_permutation_invariance(self):
        # every bijection of the support leaves the canonical class fixed
        rnd = random.Random(7)
        for _ in range(60):
            g = random_multigraph(rnd, max_vertices=4)
            base = canonicalize(g)
            verts = g.support
            for perm in permutations(range(1, len(verts) + 1)):
                mapping = dict(zip(verts, perm))
                assert canonicalize(relabel(g, mapping)) == base

    def test_canonical_form_is_a_relabeling_of_input(self):
        rnd = random.Random(11)
        for _ in range(40):
            g = random_multigraph(rnd, max_vertices=4)
            c = canonicalize(g)
            verts = g.support
            assert any(
                relabel(g, dict(zip(verts, perm))) == c
                for perm in permutations(range(1, len(verts) + 1))
            )

    def test_vertex_statistics_preserved(self):
        def stats(g):
            inc = {}
            for i, j, m in g.edges:
                inc.setdefault(i, []).append(m)
                inc.setdefault(j, []).append(m)
            legs = g.leg_dict()
            return sorted(
                (legs.get(v, 0), sorted(inc.get(v, []))) for v in g.support
            )

        rnd = random.Random(3)
        for _ in range(200):
            g = random_multigraph(rnd)
            assert stats(g) == stats(canonicalize(g))

    @given(multigraphs(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_random_bijection_invariance(self, g, rnd):
        verts = list(g.support)
        images = rnd.sample(range(1, 40), len(verts))
        assert canonicalize(relabel(g, dict(zip(verts, images)))) == canonicalize(g)


class TestCompose:
    def test_multiplicity_addition(self):
        assert compose(edge(1, 2), edge(1, 2)) == edge(1, 2, 2)

    def test_neutral_element(self):
        g = make_multigraph([(1, 2, 1)], [(3, 2)])
        assert compose(g, EMPTY) == g
        assert compose(EMPTY, g) == g

    def test_disjoint_product(self):
        assert compose(edge(1, 2), leg(3)) == make_multigraph([(1, 2, 1)], [(3, 1)])

    @given(multigraphs(), multigraphs(), multigraphs())
    @settings(max_examples=100, deadline=None)
    def test_commutative_associative(self, a, b, c):
        assert compose(a, b) == compose(b, a)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(multigraphs(), multigraphs())
    @settings(max_examples=100, deadline=None)
    def test_grading_is_additive(self, a, b):
        ma, na = a.grading
        mb, nb = b.grading
        assert compose(a, b).grading == (ma + mb, na + nb)


class TestPairings:
    def test_counts_match_double_factorial_and_oracle(self):
        for m in range(0, 7):
            got = len(enumerate_pairings(range(2 * m)))
            assert got == count_matchings(2 * m)

    def test_m6_count(self):
        assert len(enumerate_pairings(range(12))) == 10395

    def test_odd_cardinality_gives_empty_list(self):
        assert enumerate_pairings([1, 2, 3]) == []

    def test_ordering_constraints(self):
        labels = [3, 1, 4, 5, 9, 2]
        order = {v: pos for pos, v in enumerate(labels)}
        for pairing in enumerate_pairings(labels):
            firsts = [order[a] for a, _ in pairing]
            assert all(order[a] < order[b] for a, b in pairing)
            assert firsts == sorted(firsts)

    def test_no_duplicates_and_each_label_once(self):
        labels = list(range(8))
        seen = set()
        for pairing in enumerate_pairings(labels):
            flat = [x for pair in pairing for x in pair]
            assert sorted(flat) == labels
            key = frozenset(frozenset(p) for p in pairing)
            assert key not in seen
            seen.add(key)

    def test_matches_brute_force_matchings(self):
        for m in (1, 2, 3):
            labels = list(range(2 * m))
            ours = {
                frozenset(frozenset(p) for p in pairing)
                for pairing in enumerate_pairings(labels)
            }
            assert ours == set(brute_force_matchings(labels))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            enumerate_pairings([1, 1])


class TestGraphPolynomial:
    def test_additive_inverse(self):
        p = GraphPolynomial.monomial(edge(1, 2)) + GraphPolynomial.monomial(
            edge(1, 3), 4
        )
        assert not (p + (-1) * p)
        assert p - p == GraphPolynomial.zero()

    def test_isomorphic_keys_merge(self):
        # {1,2} and {1,3} are the same canonical class
        p = GraphPolynomial([(edge(1, 2), 1), (edge(1, 3), 1)])
        assert len(p) == 1
        assert p.coefficient(edge(5, 9)) == 2

    def test_neutral_multiplication(self):
        p = GraphPolynomial([(edge(1, 2), 1), (edge(1, 3), 1)])
        one = GraphPolynomial.monomial(EMPTY)
        assert poly_mul(p, one) == p

    def test_poly_scale(self):
        p = poly_scale(GraphPolynomial.monomial(edge(1, 2)), 3)
        assert p.coefficient(edge(1, 2)) == 3
        assert poly_scale(p, 0) == GraphPolynomial.zero()

    def test_poly_add_merges_and_drops_zeros(self):
        p = GraphPolynomial.monomial(edge(1, 2), 2)
        q = GraphPolynomial.monomial(edge(2, 3), -2)
        assert poly_add(p, q) == GraphPolynomial.zero()

    def test_same_label_product(self):
        p = GraphPolynomial.monomial(edge(1, 2))
        assert poly_mul(p, p).coefficient(edge(1, 2, 2)) == 1

    def test_items_sorted_deterministically(self):
        p = GraphPolynomial(
            [(make_multigraph([(1, 2, 1), (3, 4, 1)]), 6), (edge(1, 2, 2), 2)]
        )
        ks = [len(g.support) for g, _ in p.items()]
        assert ks == sorted(ks)

    def test_big_coefficients_stay_exact(self):
        c = 3**40
        p = GraphPolynomial.monomial(edge(1, 2), c)
        assert (p + p).coefficient(edge(1, 2)) == 2 * c

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=100, deadline=None)
    def test_product_distributes_over_sum(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials(), polynomials())
    @settings(max_examples=100, deadline=None)
    def test_cancelled_terms_are_not_stored(self, p, q):
        assert len(p * q - q * p) == 0
        assert len(p - p) == 0
        assert all(c for _, c in (p + q).items())
