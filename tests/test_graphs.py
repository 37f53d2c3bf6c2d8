"""Graph core: construction, canonical labeling, algebra, pairings."""

import copy
import pickle
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
    theorem_verify,
)
from overlap_lab.exprio import as_jsonable, from_json, to_json


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


class TestMultigraphValue:
    """A monomial is a value: it survives pickling and copying, cannot be
    changed, and its public constructor refuses every malformed input."""

    G = make_multigraph([(1, 2, 2), (2, 5, 1)], [(1, 1), (7, 3)])

    @pytest.mark.parametrize("clone", [
        lambda g: pickle.loads(pickle.dumps(g)),
        lambda g: pickle.loads(pickle.dumps(g, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-0", "copy", "deepcopy"])
    @pytest.mark.parametrize("g", [G, EMPTY, edge(1, 2)], ids=["legged", "empty", "edge"])
    def test_round_trip_keeps_value_and_type(self, clone, g):
        h = clone(g)
        assert h == g and type(h) is Multigraph
        assert (h.edges, h.legs) == (g.edges, g.legs)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_runs_the_constructor_checks(self, protocol):
        bad = tuple.__new__(Multigraph, (((2, 1, 1),), ()))
        with pytest.raises(ValueError, match="0 < i < j"):
            pickle.loads(pickle.dumps(bad, protocol=protocol))

    @pytest.mark.parametrize("name", ["edges", "legs"])
    def test_fields_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(self.G, name, ())

    # An unsorted and a repeated pair: TestMakeMultigraph.test_raw_constructor_validates.
    @pytest.mark.parametrize("edges, legs", [
        (((2, 2, 1),), ()),  # loop
        (((1, 3, 1), (1, 2, 1)), ()),  # pairs out of order
        (((1, 2, 0),), ()),  # edge multiplicity below 1
        (((0, 1, 1),), ()),  # vertex below 1
        ((), ((2, 1), (1, 1))),  # vertices out of order
        ((), ((1, 1), (1, 1))),  # repeated vertex
        ((), ((1, 0),)),  # leg multiplicity below 1
        ((), ((0, 1),)),  # leg vertex below 1
    ])
    def test_constructor_refuses_malformed_input(self, edges, legs):
        with pytest.raises(ValueError):
            Multigraph(edges, legs)

    def test_repr(self):
        assert repr(self.G) == "Multigraph(edges=[(1, 2, 2), (2, 5, 1)], legs=[(1, 1), (7, 3)])"
        assert repr(EMPTY) == "Multigraph(edges=[], legs=[])"

    def test_json_form(self):
        report = theorem_verify(make_multigraph([(3, 5, 2), (5, 9, 1)]), 1)
        assert as_jsonable(report)["payload"]["graph"] == "{1,2}^2{1,3}"
        graph = from_json(to_json(report)).graph
        assert graph == report.graph and type(graph) is Multigraph

    def test_is_the_tuple_of_edges_and_legs(self):
        g = self.G
        assert g == (g.edges, g.legs) and hash(g) == hash((g.edges, g.legs))
        graphs = [g, EMPTY, edge(1, 2), edge(1, 3), leg(1), make_multigraph([(1, 2, 2)])]
        assert sorted(graphs) == sorted(graphs, key=tuple)


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

    @given(multigraphs(max_vertices=6, max_edges=5),
           st.lists(st.integers(1, 2**40), min_size=6, max_size=6, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_huge_sparse_labels(self, g, images):
        # The canonical form ranks the labels first: no structure is sized
        # by a label's value.
        mapping = dict(zip(g.support, images))
        assert canonicalize(relabel(g, mapping)) == canonicalize(g)


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
