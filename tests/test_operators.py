"""Operator engine: derivation, contraction, stability operator, theorem."""

import functools
import random
import traceback
import tracemalloc
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import leg_free_multigraphs, multigraphs, polynomials
from overlap_lab import (
    DELTA,
    EMPTY,
    WICK,
    BudgetError,
    GraphPolynomial,
    apply_word,
    big_delta,
    canonicalize,
    compose,
    delta,
    delta_formula_direct,
    delta_v_minus,
    delta_v_plus,
    double_factorial,
    edge,
    enumerate_pairings,
    fresh_vertex,
    leg,
    make_multigraph,
    term_count_report,
    theorem_verify,
    wick_contract,
)
from overlap_lab import graphs, operators
from overlap_lab.graphs import _canonical_form
from overlap_lab.operators import _delta_term, _matrix_count, _pair_count_matrices

G12 = edge(1, 2)


def mono(g, c=1):
    return GraphPolynomial.monomial(g, c)


def all_leg_free_monomials(max_vertices=4, max_edge_mult=3):
    """Every canonical leg-free class with total edge multiplicity up to the
    bound, enumerated by brute force over labeled multisets of pairs."""
    out = {canonicalize(EMPTY)}
    all_pairs = [(i, j) for i in range(1, max_vertices + 1)
                 for j in range(i + 1, max_vertices + 1)]
    for total in range(1, max_edge_mult + 1):
        for combo in combinations_with_replacement(all_pairs, total):
            out.add(canonicalize(make_multigraph([(i, j, 1) for i, j in combo])))
    return sorted(out, key=lambda g: (len(g.support), g.edges))


class TestDeltaV:
    def test_plus_adds_leg_at_vertex(self):
        assert delta_v_plus(G12, 2) == mono(make_multigraph([(1, 2, 1)], [(2, 1)]))

    def test_plus_on_lonely_leg(self):
        assert delta_v_plus(leg(1), 1) == mono(leg(1, 2))

    def test_plus_outside_support_rejected(self):
        with pytest.raises(ValueError):
            delta_v_plus(G12, 3)

    def test_minus_fills_interior_gap(self):
        g13 = edge(1, 3)
        assert fresh_vertex(g13) == 2
        expected = mono(make_multigraph([(1, 3, 1)], [(2, 1)]), -1)
        assert delta_v_minus(g13, 3) == expected

    def test_minus_twice_from_the_gap_example(self):
        # second application sees support {1,2,3}, so the new vertex is 4
        g13 = edge(1, 3)
        step1 = compose(g13, leg(fresh_vertex(g13)))
        assert fresh_vertex(step1) == 4
        chained = (-1) * delta_v_minus(step1, 3)
        assert chained == mono(make_multigraph([(1, 3, 1)], [(2, 1), (4, 1)]))

    def test_minus_simple(self):
        assert delta_v_minus(G12, 1) == mono(
            make_multigraph([(1, 2, 1)], [(3, 1)]), -1
        )


class TestDelta:
    def test_single_edge_expansion(self):
        expected = (
            mono(make_multigraph([(1, 2, 1)], [(1, 1)]))
            + mono(make_multigraph([(1, 2, 1)], [(2, 1)]))
            + mono(make_multigraph([(1, 2, 1)], [(3, 1)]), -2)
        )
        assert delta(mono(G12)) == expected

    def test_empty_annihilated(self):
        assert delta(mono(EMPTY)) == GraphPolynomial.zero()

    def test_linear(self):
        p = mono(G12, 2) + mono(edge(1, 2, 2), -1)
        assert delta(p) == 2 * delta(mono(G12)) - delta(mono(edge(1, 2, 2)))

    @given(multigraphs())
    @settings(max_examples=100, deadline=None)
    def test_grading_shifts_leg_count_by_one(self, g):
        m, l = canonicalize(g).grading
        for h, _ in delta(mono(g)).items():
            assert h.grading == (m, l + 1)

    @given(leg_free_multigraphs(), leg_free_multigraphs())
    @settings(max_examples=80, deadline=None)
    def test_leibniz_on_vertex_disjoint_factors(self, g1, g2):
        g1 = canonicalize(g1)
        g2 = canonicalize(g2)
        shift = {v: v + len(g1.support) for v in g2.support}
        g2 = make_multigraph(
            [(shift[i], shift[j], m) for i, j, m in g2.edges],
            [(shift[v], n) for v, n in g2.legs],
        )
        avoid = set(g1.support) | set(g2.support)

        def hygienic_delta_times(g, other):
            # fresh label chosen outside both supports (capture avoidance);
            # compose at the raw label level, canonicalize only at the end
            f = 1
            while f in avoid:
                f += 1
            terms = [(compose(compose(g, leg(v)), other), 1) for v in g.support]
            terms.append((compose(compose(g, leg(f)), other), -len(g.support)))
            return GraphPolynomial(terms)

        lhs = delta(mono(compose(g1, g2)))
        rhs = hygienic_delta_times(g1, g2) + hygienic_delta_times(g2, g1)
        assert lhs == rhs


@st.composite
def repeated_components(draw):
    """Canonical legged multigraphs made of copies of up to three random
    shapes and of lone vertices with one to four legs, each repeated up to
    three times; drawing nothing gives EMPTY."""
    shapes = draw(st.lists(multigraphs(max_legs=3), max_size=3))
    shapes += [leg(1, n) for n in draw(st.lists(st.integers(1, 4), max_size=2))]
    edges, legs, offset = [], [], 0
    for g in shapes:
        for _ in range(draw(st.integers(1, 3))):
            edges += [(i + offset, j + offset, m) for i, j, m in g.edges]
            legs += [(v + offset, n) for v, n in g.legs]
            offset += max(g.support)
    return canonicalize(make_multigraph(edges, legs))


class TestDeltaTerm:
    @given(repeated_components())
    @example(EMPTY)
    @settings(max_examples=100, deadline=None)
    def test_equals_whole_graph_construction(self, g):
        # One leg at each support vertex (+1) and at the fresh vertex R+1
        # (-R), each output canonicalized as a whole graph.
        r, legs = len(g.support), g.leg_dict()
        expected = GraphPolynomial._sum(
            (_canonical_form(g.edges, sorted({**legs, v: legs.get(v, 0) + 1}.items())),
             1 if v <= r else -r)
            for v in range(1, r + 2)
        )
        got = _delta_term.__wrapped__(g)
        assert got == expected
        # Same term order too: the lab sums floats over terms in this order.
        assert list(got._terms) == list(expected._terms)


class TestWick:
    def test_two_legs_on_distinct_vertices(self):
        g = make_multigraph([(1, 2, 1)], [(1, 1), (2, 1)])
        assert wick_contract(mono(g)) == mono(edge(1, 2, 2))

    def test_self_pair_is_factor_one(self):
        g = make_multigraph([(1, 2, 1)], [(1, 2)])
        assert wick_contract(mono(g)) == mono(G12)

    def test_self_pair_can_isolate_a_vertex(self):
        g = make_multigraph([(2, 3, 1)], [(1, 2)])
        assert wick_contract(mono(g)) == mono(G12)

    def test_odd_leg_count_vanishes(self):
        g = make_multigraph([(1, 2, 1)], [(1, 1)])
        assert wick_contract(mono(g)) == GraphPolynomial.zero()

    def test_leg_free_passthrough(self):
        p = mono(G12, 5) + mono(edge(1, 2, 3), -2)
        assert wick_contract(p) == p

    @given(multigraphs())
    @settings(max_examples=100, deadline=None)
    def test_output_is_leg_free_with_bounded_edges(self, g):
        m, l = g.grading
        contracted = wick_contract(mono(g))
        if l % 2:
            assert contracted == GraphPolynomial.zero()
        else:
            for h, _ in contracted.items():
                assert h.is_leg_free()
                # each self-pair drops one potential edge
                assert h.grading[0] <= m + l // 2


def wick_by_pairings(g):
    """Reference contraction: list every labelled pairing of the legs and
    canonicalize each outcome."""
    instances = [v for v, n in g.legs for _ in range(n)]
    terms = []
    for pairing in enumerate_pairings(range(len(instances))):
        edges = list(g.edges) + [
            (instances[a], instances[b], 1)
            for a, b in pairing
            if instances[a] != instances[b]
        ]
        terms.append((canonicalize(make_multigraph(edges)), 1))
    return GraphPolynomial(terms)


@st.composite
def leg_multisets(draw):
    """Up to 12 legs over up to 5 vertices, on random base edges."""
    verts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True))
    legs = draw(st.lists(st.sampled_from(verts), max_size=12))
    edges = []
    if len(verts) > 1:
        pairs = st.lists(st.sampled_from(verts), min_size=2, max_size=2, unique=True)
        for i, j in draw(st.lists(pairs, max_size=4)):
            edges.append((i, j, draw(st.integers(1, 2))))
    return make_multigraph(edges, [(v, 1) for v in legs])


class TestWickAgainstPairings:
    @given(leg_multisets())
    @settings(max_examples=60, deadline=None)
    def test_pair_counts_equal_pairing_enumeration(self, g):
        assert wick_contract(mono(g)) == wick_by_pairings(g)

    def test_twelve_legs_on_three_vertices(self):
        g = make_multigraph([(1, 2, 1)], [(1, 6), (2, 4), (3, 2)])
        p = wick_contract(mono(g))
        assert p == wick_by_pairings(g)
        assert p.coefficient_sum() == double_factorial(11)

    @given(st.lists(st.integers(0, 4), max_size=5), st.integers(0, 300))
    @example([0, 0, 0, 0], 1)  # vertices without legs add no pairs to the bound
    @settings(max_examples=80, deadline=None)
    def test_matrix_count_equals_enumeration(self, degrees, bound):
        # The refusal's count against the enumeration it stands in for, in
        # any vertex order, with and without a bound to stop at.
        enumerated = len(_pair_count_matrices(tuple(degrees)))
        for cap in (10**9, bound):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(operators, "MAX_PAIR_COUNT_MATRICES", cap)
                assert _matrix_count(tuple(sorted(degrees))) == min(enumerated, cap + 1)

    def test_listing_reused_by_a_term_with_the_same_degrees(self, monkeypatch):
        monkeypatch.setattr(operators, "_matrix_lists", {})
        monkeypatch.setattr(operators, "_wick_term", functools.lru_cache(
            maxsize=None)(operators._wick_term.__wrapped__))
        first = make_multigraph([(1, 2, 1)], [(1, 2), (2, 1), (3, 3)])
        # Legs of degrees 3, 2, 1 on other vertices, with other base edges.
        second = make_multigraph([(2, 4, 1), (4, 5, 2)], [(1, 3), (2, 2), (5, 1)])
        assert wick_contract(mono(first)) == wick_by_pairings(first)
        listed = list(operators._matrix_lists)
        assert len(listed) == 1
        assert wick_contract(mono(second)) == wick_by_pairings(second)
        assert list(operators._matrix_lists) == listed

    def test_stored_listings_stay_within_the_matrix_bound(self, monkeypatch):
        monkeypatch.setattr(operators, "_matrix_lists", {})
        monkeypatch.setattr(operators, "MAX_PAIR_COUNT_MATRICES", 1000)
        degrees = [*product((2, 4), repeat=5), *product((2, 3, 4), repeat=4)]
        tracemalloc.start()
        try:
            listed = sum(len(_pair_count_matrices(d)) for d in degrees)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert listed == 14_940
        assert sum(map(len, operators._matrix_lists.values())) <= 1000
        # About 260 bytes per stored matrix plus the interpreter's tuple free
        # lists; storing all 14,940 holds about 3 MB.
        assert held < 3 * 2**19, held

    def test_matrix_count_of_ten_degree_two_vertices(self, monkeypatch):
        assert _matrix_count((2,) * 10) == operators.MAX_PAIR_COUNT_MATRICES + 1
        monkeypatch.setattr(operators, "MAX_PAIR_COUNT_MATRICES", 2 * 10**6)
        assert _matrix_count((2,) * 10) == 1_436_714

    def test_matrix_count_over_its_step_budget_refused(self, monkeypatch):
        # The count spends a work unit per step, 8,064 of them here.
        count = graphs._budgeted(_matrix_count)
        monkeypatch.setattr(graphs, "WORK_BUDGET", 10_000)
        assert count((1, 31, 32, 100)) == 9112
        monkeypatch.setattr(graphs, "WORK_BUDGET", 1000)
        with pytest.raises(BudgetError, match="WORK_BUDGET = 1000 work units"):
            count((1, 31, 32, 100))


class TestBigDelta:
    def test_worked_example(self):
        expected = (
            mono(edge(1, 2, 2), 2)
            + mono(make_multigraph([(1, 2, 1), (2, 3, 1)]), -8)
            + mono(make_multigraph([(1, 2, 1), (3, 4, 1)]), 6)
        )
        assert big_delta(mono(G12)) == expected

    def test_empty_annihilated(self):
        assert big_delta(mono(EMPTY)) == GraphPolynomial.zero()

    def test_matches_closed_form_on_two_disjoint_edges(self):
        g = make_multigraph([(1, 2, 1), (3, 4, 1)])
        assert big_delta(mono(g)) == delta_formula_direct(g)

    def test_matches_closed_form_everywhere_small(self):
        for g in all_leg_free_monomials(max_vertices=4, max_edge_mult=3):
            if g == EMPTY:
                continue
            assert big_delta(mono(g)) == delta_formula_direct(g), g

    def test_matches_closed_form_on_five_vertex_supports(self):
        five_vertex = [
            make_multigraph([(1, 2, 1), (3, 4, 1), (2, 5, 1)]),
            make_multigraph([(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]),
            make_multigraph([(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (1, 5, 1)]),
            make_multigraph([(1, 2, 2), (3, 4, 1), (3, 5, 1)]),
        ]
        for g in five_vertex:
            assert len(g.support) == 5
            assert big_delta(mono(g)) == delta_formula_direct(g), g

    @given(polynomials(), st.integers(-3, 3))
    @example(mono(make_multigraph([(1, 2, 1)], [(2, 1), (3, 2)]), 2), 1)
    @settings(max_examples=100, deadline=None)
    def test_equals_contraction_of_two_derivations(self, p, empty):
        # big_delta applies delta's rule to labelled terms on its own; this
        # keeps it equal to the canonical delta, legs and the empty graph
        # included.
        p = p + mono(EMPTY, empty)
        assert big_delta(p) == wick_contract(delta(delta(p)))

    @given(leg_free_multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_leg_free_in_leg_free_out(self, g):
        for h, _ in big_delta(mono(g)).items():
            assert h.is_leg_free()

    @given(leg_free_multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_coefficient_sum_vanishes(self, g):
        # sending every overlap to 1 must kill the stability polynomial
        assert big_delta(mono(g)).coefficient_sum() == 0


class TestLinearity:
    @pytest.mark.parametrize("op", [delta, wick_contract, big_delta])
    @given(p=polynomials(), q=polynomials())
    @settings(max_examples=40, deadline=None)
    def test_operator_of_sum_is_sum_of_operators(self, op, p, q):
        assert op(p + q) == op(p) + op(q)
        # every image term cancels against its negative
        assert len(op(p) + op(-p)) == 0

    def test_images_of_distinct_terms_cancel(self):
        # {1}^2 contracts to one pairing, {1}^4 to three, both onto the empty graph
        p = mono(leg(1, 2), 3) + mono(leg(1, 4), -1)
        assert len(p) == 2
        assert wick_contract(p) == wick_contract(mono(leg(1, 2), 3)) + wick_contract(
            mono(leg(1, 4), -1)) == GraphPolynomial.zero()


class TestDeltaFormulaDirect:
    def test_rejects_legs(self):
        with pytest.raises(ValueError):
            delta_formula_direct(make_multigraph([(1, 2, 1)], [(1, 1)]))

    def test_empty_gives_zero(self):
        assert delta_formula_direct(EMPTY) == GraphPolynomial.zero()

    def test_r2_values(self):
        p = delta_formula_direct(G12)
        assert p.coefficient(edge(1, 2, 2)) == 2
        assert p.coefficient(make_multigraph([(1, 2, 1), (2, 3, 1)])) == -8
        assert p.coefficient(make_multigraph([(1, 2, 1), (3, 4, 1)])) == 6

    def test_normalizes_arbitrary_labels(self):
        assert delta_formula_direct(edge(5, 9)) == delta_formula_direct(G12)


class TestApplyWord:
    def test_word_c_d_d_is_big_delta(self):
        assert apply_word([WICK, DELTA, DELTA], mono(G12)) == big_delta(mono(G12))

    def test_empty_word_is_identity(self):
        p = mono(G12, 3) + mono(edge(1, 2, 2))
        assert apply_word([], p) == p

    def test_wick_on_leg_free_is_identity(self):
        assert apply_word([WICK], mono(G12)) == mono(G12)

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            apply_word(["q"], mono(G12))


class TestTheorem:
    def test_n0_trivial(self):
        rep = theorem_verify(G12, 0)
        assert rep.equal and rep.lhs == mono(G12) == rep.rhs
        assert rep.raw_lhs_terms == rep.raw_rhs_terms == 1

    def test_n2_single_edge_with_paper_counts(self):
        rep = theorem_verify(G12, 2)
        assert rep.equal
        assert rep.raw_lhs_terms == 48
        assert rep.raw_rhs_terms == 16
        assert rep.canonical_lhs_terms == rep.canonical_rhs_terms

    def test_n3_coefficient_is_15(self):
        assert double_factorial(2 * 3 - 1) == 15
        rep = theorem_verify(G12, 3)
        assert rep.equal

    def test_exhaustive_small_monomials(self):
        for g in all_leg_free_monomials(max_vertices=4, max_edge_mult=3):
            for n in range(0, 4):
                rep = theorem_verify(g, n)
                assert rep.equal, (g, n)

    def test_budget_refusals(self, monkeypatch, fresh_memos):
        # Cold, n=4 on one edge needs about 3,900 units and three disjoint
        # edges at n=3 more still.
        monkeypatch.setattr(graphs, "WORK_BUDGET", 1000)
        with pytest.raises(BudgetError, match="WORK_BUDGET = 1000 work units"):
            theorem_verify(G12, 4)
        wide = make_multigraph([(1, 2, 1), (3, 4, 1), (5, 6, 1)])
        with pytest.raises(BudgetError, match="WORK_BUDGET = 1000 work units"):
            theorem_verify(wide, 3)

    @pytest.mark.parametrize("g", [G12, edge(1, 2, 2),
                                   make_multigraph([(1, 2, 1), (1, 3, 1), (2, 3, 1)])],
                             ids=["edge", "double-edge", "triangle"])
    def test_n4_exact_against_the_closed_form(self, g):
        rep = theorem_verify(g, 4)
        direct = mono(g)
        for _ in range(4):
            direct = sum((c * delta_formula_direct(h) for h, c in direct.items()),
                         GraphPolynomial.zero())
        assert rep.equal and rep.rhs == double_factorial(7) * direct

    def test_legs_rejected(self):
        with pytest.raises(ValueError):
            theorem_verify(make_multigraph([], [(1, 2)]), 1)

    def test_term_count_report(self):
        assert term_count_report(G12, 2)[:2] == (48, 16)
        counts = term_count_report(G12, 1)
        assert counts.raw_rhs == 4  # R(R-1)/2 + R + 1 at R=2
        assert counts.canonical_lhs == 3  # the worked example's three classes


def raised_in(exc_info) -> list[str]:
    """The names of the functions a raised exception passed through."""
    return [frame.name for frame in traceback.extract_tb(exc_info.tb)]


class TestWorkBudget:
    def test_refused_inside_the_linear_extension(self, monkeypatch):
        p = delta(delta(mono(G12)))
        delta(p)  # warm: now only the application and the terms it visits spend
        before = graphs.work_counts()["work_units"]
        delta(p)
        visits = graphs.work_counts()["work_units"] - before
        assert visits == 1 + sum(len(_delta_term(g)) * (1 + len(g.edges) + len(g.legs))
                                 for g, _ in p.items())
        monkeypatch.setattr(graphs, "WORK_BUDGET", visits - 1)
        with pytest.raises(BudgetError) as exc:
            delta(p)
        assert raised_in(exc)[-2:] == ["_images", "_spend"]

    # fresh_memos gives the package's modules fresh memos, not the names
    # this module imported: canonicalize is called through graphs.

    def test_refused_inside_a_canonical_search(self, monkeypatch, fresh_memos):
        k5 = make_multigraph([(i, j, 1) for i in range(1, 6) for j in range(i + 1, 6)])
        # Its canonical form, root refinement and the search's first child
        # refinement spend 10 + 25 + 21 units; the grandchild's refinement
        # (17 more) is over.
        monkeypatch.setattr(graphs, "WORK_BUDGET", 60)
        with pytest.raises(BudgetError) as exc:
            graphs.canonicalize(k5)
        assert raised_in(exc)[-3:] == ["search", "_refine", "_spend"]

    def test_refused_inside_a_matrix_count(self, monkeypatch, fresh_memos):
        g = make_multigraph([], [(1, 1), (2, 31), (3, 32), (4, 100)])
        monkeypatch.setattr(graphs, "WORK_BUDGET", 1000)
        with pytest.raises(BudgetError) as exc:
            wick_contract(mono(g))
        assert raised_in(exc)[-2:] == ["_count_matrices", "_spend"]

    def test_memo_hits_spend_nothing(self, monkeypatch, fresh_memos):
        k5 = make_multigraph([(i, j, 1) for i in range(1, 6) for j in range(i + 1, 6)])
        before = graphs.work_counts()["work_units"]
        graphs.canonicalize(k5)
        cold = graphs.work_counts()["work_units"] - before
        graphs.canonicalize(k5)
        assert cold > 0 and graphs.work_counts()["work_units"] - before == cold
        # So a warm call can pass where the same call, cold, was refused.
        default = graphs.WORK_BUDGET
        monkeypatch.setattr(graphs, "WORK_BUDGET", 2000)  # cold 9,306, warm 1,871
        with pytest.raises(BudgetError):
            theorem_verify(G12, 3)
        monkeypatch.setattr(graphs, "WORK_BUDGET", default)
        theorem_verify(G12, 3)
        monkeypatch.setattr(graphs, "WORK_BUDGET", 2000)
        assert theorem_verify(G12, 3).equal


class TestDoubleFactorial:
    def test_values(self):
        assert [double_factorial(k) for k in (-1, 0, 1, 3, 5, 7, 11)] == [
            1, 1, 1, 3, 15, 105, 10395,
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(-3)

    def test_refused_from_minus_two_down(self):
        assert double_factorial(-1) == 1
        with pytest.raises(ValueError, match="undefined for -2"):
            double_factorial(-2)


def test_delta_then_wick_grading_on_random_terms():
    rnd = random.Random(123)
    from conftest import random_multigraph

    for _ in range(100):
        g = canonicalize(random_multigraph(rnd))
        m, l = g.grading
        contracted = wick_contract(delta(delta(mono(g))))
        for h, _ in contracted.items():
            assert h.is_leg_free()
            assert h.grading[0] <= m + (l + 2) // 2
