"""Operators on overlap polynomials: the Gaussian derivation, Wick
contraction, and their composite stability operator.

``delta`` inserts one Gaussian factor in all possible ways: for each term it
adds a leg on every support vertex (coefficient +1) and subtracts, with
multiplicity R = |support|, a leg on the first vertex label not in the
support.  ``wick_contract`` sums over all pairings of the legs of each term:
a pair landing on two distinct vertices becomes an overlap edge, a pair
landing on a single vertex contributes the factor one (the diagonal overlap
is normalized to one).  A pairing's outcome depends only on its pair counts:
the symmetric matrix k with k_uv pairs between vertices u != v and k_vv
pairs within v.  With n_v legs at v, Isserlis' theorem gives

    prod_v n_v! / (prod_{u<v} k_uv! * prod_v k_vv! 2^k_vv)

labelled pairings per matrix, so the contraction enumerates matrices, not
the (2m-1)!! pairings, and refuses with :class:`BudgetError` a term that
has more than ``MAX_PAIR_COUNT_MATRICES`` of them, the bound on one term's
listing and on the listings kept.  The matrices depend on the leg degrees
alone and are listed once per degree tuple.

``big_delta`` is wick_contract after delta twice; on leg-free input it
produces the leg-free polynomial whose quenched average measures the
deviation from stochastic stability.  It applies delta's rule twice to a
labelled term and contracts the results before it canonicalizes anything;
the closed form ``delta_formula_direct`` stays an independent check.

``theorem_verify`` checks, by exact polynomial arithmetic on canonical
classes, that contracting 2n derivations equals (2n-1)!! applications of
``big_delta``.

Time is bounded by the work budget of :mod:`graphs`: ``delta``,
``wick_contract``, ``big_delta``, ``apply_word`` and ``theorem_verify``
each open one when none is running.  Units follow the work, at any n and
any support.  An operator's application spends one.  A term it visits
spends, for each term of its image, one per edge and leg of the visited
term, plus one.  big_delta's rule spends (|support| + 1)(legs + 1) for each
labelled term it grows.  A pair-count matrix applied spends one per edge
and leg (legs counted with multiplicity) of its term, plus one, for its
outcome and that outcome's canonical form, and one per 2^20 squared bits
of its long division; a listing spends one per matrix times the vertices
squared, and a step of counting matrices one.  ``double_factorial`` spends
one per 2^14 bit-steps of its product, before it multiplies.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graphs import (
    BudgetError,
    GraphPolynomial,
    Multigraph,
    _budgeted,
    _canonical_form,
    _grow_leg,
    _spend,
    canonicalize,
    compose,
    edge,
    leg,
    work,
)

__all__ = [
    "DELTA",
    "WICK",
    "BudgetError",
    "TheoremReport",
    "TermCounts",
    "double_factorial",
    "fresh_vertex",
    "delta_v_plus",
    "delta_v_minus",
    "delta",
    "wick_contract",
    "big_delta",
    "delta_formula_direct",
    "apply_word",
    "theorem_verify",
    "term_count_report",
    "MAX_PAIR_COUNT_MATRICES",
]

DELTA = "delta"
WICK = "wick"

#: Bound on the pair-count matrices one term's Wick contraction may enumerate.
MAX_PAIR_COUNT_MATRICES = 50_000


def double_factorial(k: int) -> int:
    """k!! for k >= -1, with (-1)!! = 0!! = 1.  Its k/2 multiplications, of
    k^2 log2(k) / 8 bit-steps in all, spend a work unit per 2^14 of them."""
    if k < -1:
        raise ValueError(f"double factorial undefined for {k}")
    _spend(k * k * k.bit_length() >> 17)
    return math.prod(range(k, 1, -2))


def fresh_vertex(g: Multigraph) -> int:
    """Smallest positive integer not in the support (may fill an interior gap)."""
    have = set(g.support)
    v = 1
    while v in have:
        v += 1
    return v


def _as_poly(p) -> GraphPolynomial:
    if isinstance(p, GraphPolynomial):
        return p
    if isinstance(p, Multigraph):
        return GraphPolynomial.monomial(p)
    raise TypeError(f"expected GraphPolynomial or Multigraph, got {type(p).__name__}")


@_budgeted
def _extend(term_map, p) -> GraphPolynomial:
    """Linear extension of ``term_map``, a map from one canonical monomial to
    a polynomial, over the terms of ``p``.

    Terms are read in dict order, not sorted: integer sums do not depend on
    the order, and printing sorts through :meth:`GraphPolynomial.items`."""
    return GraphPolynomial._sum(_images(term_map, _as_poly(p)))


def _images(term_map, p: GraphPolynomial):
    """The terms of ``term_map``'s image of each term of ``p``, times its
    coefficient.  The application spends a unit, and each term visited, per
    term of its image, a unit per edge and leg of the visited term, plus one."""
    _spend()
    for g, c in p._terms.items():
        image = term_map(g)._terms
        _spend(len(image) * (1 + len(g.edges) + len(g.legs)))
        for h, c2 in image.items():
            yield h, c * c2


def delta_v_plus(g: Multigraph, v: int) -> GraphPolynomial:
    """Add a leg at support vertex ``v`` (single term, coefficient +1)."""
    if v not in g.support:
        raise ValueError(f"vertex {v} is not in the support {list(g.support)}")
    return GraphPolynomial.monomial(compose(g, leg(v)))


def delta_v_minus(g: Multigraph, v: int) -> GraphPolynomial:
    """Subtract a leg at the first vertex label outside the support."""
    if v not in g.support:
        raise ValueError(f"vertex {v} is not in the support {list(g.support)}")
    return GraphPolynomial.monomial(compose(g, leg(fresh_vertex(g))), -1)


@functools.lru_cache(maxsize=None)
def _delta_term(g: Multigraph) -> GraphPolynomial:
    """delta of one canonical monomial: g with a leg more on each support
    vertex (:func:`graphs._grow_leg`), minus |support| times g with a leg on
    the fresh vertex."""
    grown, fresh = _grow_leg(g)
    return GraphPolynomial._sum([*grown, (fresh, -len(g.support))])


def delta(p) -> GraphPolynomial:
    """Linear extension of the derivation over a polynomial's terms.

    Each graded term (m, l) maps to terms of grading (m, l+1).
    """
    return _extend(_delta_term, p)


#: Pair-count matrices listed so far, by degree tuple; a list is stored only
#: while the stored lists hold at most ``MAX_PAIR_COUNT_MATRICES`` in total.
_matrix_lists: dict[tuple[int, ...], list] = {}


def _pair_count_matrices(degrees: tuple[int, ...]) -> list:
    """Every symmetric matrix k of nonnegative integers with 2 k_vv +
    sum_{u != v} k_uv = degrees[v], as ``(off_diagonal, denominator)``.

    ``off_diagonal`` lists ``(u, v, k_uv)`` for u < v and k_uv > 0, and
    ``denominator`` is prod_{u<v} k_uv! * prod_v k_vv! 2^k_vv.  The matrices
    depend on the degrees alone, so every term with these degrees reuses
    one listing, kept in ``_matrix_lists``; callers only read it.  A listing
    spends a unit per matrix times the number of vertices squared, the
    cells its recursion fills.
    """
    listed = _matrix_lists.get(degrees)
    if listed is not None:
        return listed
    listed = []
    _list_matrices(list(degrees), 0, 1, 1, [], listed)
    _spend(len(listed) * len(degrees) ** 2)
    if sum(map(len, _matrix_lists.values())) + len(listed) <= MAX_PAIR_COUNT_MATRICES:
        _matrix_lists[degrees] = listed
    return listed


def _list_matrices(rem: list, a: int, b: int, denom: int, off: list, listed: list) -> None:
    """Append to ``listed`` every completion of a partly filled matrix: the
    rows before ``a`` and row ``a`` before column ``b`` are set, ``off``
    holds their positive off-diagonal entries, ``denom`` their part of the
    denominator and ``rem`` each vertex's legs still free."""
    last = len(rem) - 1
    if a > last:
        listed.append((tuple(off), denom))
    elif b > last:  # row a is full; its remaining legs pair among themselves
        r = rem[a]
        if r % 2 == 0:
            _list_matrices(rem, a + 1, a + 2, denom * (math.factorial(r // 2) << (r // 2)),
                           off, listed)
    else:
        ra, rb = rem[a], rem[b]
        for k in range(min(ra, rb) + 1):
            rem[a], rem[b] = ra - k, rb - k
            if k:
                off.append((a, b, k))
            _list_matrices(rem, a, b + 1, denom * math.factorial(k), off, listed)
            if k:
                off.pop()
        rem[a], rem[b] = ra, rb


def _matrix_count(degrees: tuple[int, ...]) -> int:
    """How many matrices :func:`_pair_count_matrices` lists for these
    degrees, sorted, without enumerating them; a count over
    ``MAX_PAIR_COUNT_MATRICES`` reads as that bound plus one.  Each step of
    the count spends a work unit.

    An odd number of legs has no matrix.  Otherwise a perfect matching of
    the a odd-degree vertices, one pair each, and one of the b positive
    even-degree vertices, two pairs each (one left out when b is odd), make
    a matrix, so (a-1)!! (b-1)!! (b rounded down to even) is a lower bound;
    it refuses many vertices without counting.  Otherwise, as the count does
    not depend on the order of the vertices, the first vertex's row is
    summed out: each way to pair its legs with the others leaves a multiset
    of free legs (zeros dropped), counted once per multiset, and its own
    leftover legs pair among themselves when their number is even.  Each
    full row with an even leftover extends to a matrix and the others are
    at most n - 1 times as many, plus one, so past n * bound + 1 partial
    rows of n vertices the count is over the bound.
    """
    odd = sum(d % 2 for d in degrees)
    if odd % 2:
        return 0
    even = sum(d > 0 and d % 2 == 0 for d in degrees)
    if double_factorial(odd - 1) * double_factorial(even - even % 2 - 1) > MAX_PAIR_COUNT_MATRICES:
        return MAX_PAIR_COUNT_MATRICES + 1
    return _count_matrices(degrees, {})


def _count_matrices(sub: tuple[int, ...], memo: dict) -> int:
    """The count of :func:`_matrix_count` for the sorted degrees ``sub``,
    past its matching bound, memoized in ``memo`` by degree tuple."""
    if not sub:
        return 1
    if sub in memo:
        return memo[sub]
    bound = MAX_PAIR_COUNT_MATRICES
    cap = len(sub) * bound + 1
    rows = {(sub[0], ()): 1}  # (legs of the first vertex left, multiset left): ways
    for d in sub[1:]:
        grown: collections.Counter = collections.Counter()
        prefixes = 0
        for (r, left), ways in rows.items():
            prefixes += ways * (min(r, d) + 1)
            if prefixes > cap:
                memo[sub] = bound + 1
                return bound + 1
            _spend(min(r, d) + 1)
            for k in range(min(r, d) + 1):
                grown[r - k, tuple(sorted(left + (d - k,) if d > k else left))] += ways
        rows = grown
    total = 0
    for (r, left), ways in rows.items():
        if r % 2 == 0:
            total += ways * _count_matrices(left, memo)
            if total > bound:
                total = bound + 1
                break
    memo[sub] = total
    return total


def _contract(base: tuple, terms: dict) -> GraphPolynomial:
    """Wick contraction of the labelled terms ``{legs: coefficient}``, each
    with the sorted edges ``base`` and sorted legs.  Each nonzero term's
    pair-count matrices, listed or reused, counted in ``work`` and paid a
    work unit each, add edges to ``base``; equal labelled outcomes add up,
    and only the nonzero ones are canonicalized.  Where no edge of ``base``
    joins two of the term's leg vertices, a matrix's pairs are new edges,
    and its outcome is ``base`` and those pairs, sorted together."""
    acc: dict[tuple, int] = {}
    for legs, c in terms.items():
        degrees = tuple(n for _, n in legs)
        total = sum(degrees)
        if not c or total % 2:
            continue
        # More pairings than the bound: count the matrices before building any outcome.
        if (double_factorial(total - 1) > MAX_PAIR_COUNT_MATRICES
                and _matrix_count(tuple(sorted(degrees))) > MAX_PAIR_COUNT_MATRICES):
            raise BudgetError(
                f"contracting {total} legs on {len(legs)} vertices needs more "
                f"than {MAX_PAIR_COUNT_MATRICES} pair-count matrices"
            )
        verts = [v for v, _ in legs]
        numerator = math.prod(math.factorial(n) for n in degrees)
        matrices = _pair_count_matrices(degrees)
        work["pair_count_matrices"] += len(matrices)
        # A matrix's outcome, built and canonicalized, spends a unit per edge
        # and leg (with multiplicity), plus one, and its long division one per
        # 2^20 squared numerator bits.
        _spend(len(matrices) * (1 + len(base) + total + (numerator.bit_length() ** 2 >> 20)))
        at_legs = set(verts)
        if any(i in at_legs and j in at_legs for i, j, _ in base):
            base_counts = {(i, j): m for i, j, m in base}
            for off, denom in matrices:
                counts = dict(base_counts)
                for a, b, k in off:
                    key = (verts[a], verts[b])
                    counts[key] = counts.get(key, 0) + k
                edges = tuple(sorted((i, j, m) for (i, j), m in counts.items()))
                acc[edges] = acc.get(edges, 0) + c * (numerator // denom)
        else:
            for off, denom in matrices:
                edges = [(verts[a], verts[b], k) for a, b, k in off]
                edges += base
                edges.sort()
                edges = tuple(edges)
                acc[edges] = acc.get(edges, 0) + c * (numerator // denom)
    return GraphPolynomial._sum((_canonical_form(e, ()), c) for e, c in acc.items() if c)


@functools.lru_cache(maxsize=None)
def _wick_term(g: Multigraph) -> GraphPolynomial:
    """Wick contraction of one canonical monomial."""
    return _contract(g.edges, {g.legs: 1})


def wick_contract(p) -> GraphPolynomial:
    """Sum over all leg pairings of each term; edges pass through untouched.

    Terms with an odd number of legs (counted with multiplicity) vanish.
    """
    return _extend(_wick_term, p)


@functools.lru_cache(maxsize=None)
def _big_delta_term(g: Multigraph) -> GraphPolynomial:
    """big_delta of one canonical monomial: delta's rule, +1 a leg on each
    support vertex and -|support| one on the first vertex outside, twice on
    labelled terms ``{legs: coefficient}``, equal terms merged, then
    :func:`_contract`."""
    base = g.edges
    edge_support = {v for i, j, _ in base for v in (i, j)}
    terms = {g.legs: 1}
    for _ in range(2):
        grown_terms: dict[tuple, int] = {}
        for legs, c in terms.items():
            support = edge_support.union(v for v, _ in legs)
            fresh = min(set(range(1, len(support) + 2)) - support)
            _spend((len(support) + 1) * (1 + len(legs)))
            for v, n in [(v, c) for v in sorted(support)] + [(fresh, -len(support) * c)]:
                grown = dict(legs)
                grown[v] = grown.get(v, 0) + 1
                grown = tuple(sorted(grown.items()))
                grown_terms[grown] = grown_terms.get(grown, 0) + n
        terms = grown_terms
    return _contract(base, terms)


def big_delta(p) -> GraphPolynomial:
    """The composite wick_contract(delta(delta(p))).

    delta is applied twice in labelled form, then contracted.  Intended for
    leg-free input, where the result is again leg-free; terms with legs are
    accepted and handled by plain composition.
    """
    return _extend(_big_delta_term, p)


def delta_formula_direct(g: Multigraph) -> GraphPolynomial:
    """Closed form of ``big_delta`` on a leg-free monomial with support {1..R}:

        (2 * sum_{i<j<=R} c_ij - 2R * sum_{i<=R} c_{i,R+1}
         + R(R+1) * c_{R+1,R+2}) * g

    with R(R-1)/2 + R + 1 raw terms before canonical merging.  Input with
    legs is rejected; arbitrary labelings are normalized first.
    """
    if not g.is_leg_free():
        raise ValueError("closed form applies to leg-free monomials only")
    gc = canonicalize(g)
    r = len(gc.support)
    if r == 0:
        return GraphPolynomial.zero()
    terms: list[tuple[Multigraph, int]] = []
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            terms.append((compose(gc, edge(i, j)), 2))
    for i in range(1, r + 1):
        terms.append((compose(gc, edge(i, r + 1)), -2 * r))
    terms.append((compose(gc, edge(r + 1, r + 2)), r * (r + 1)))
    return GraphPolynomial(terms)


@_budgeted
def apply_word(word: Sequence[str], p) -> GraphPolynomial:
    """Apply a composition of operators written in the usual notation order,
    i.e. the last element of ``word`` acts first, in one work budget."""
    ops = {DELTA: delta, WICK: wick_contract}
    for tok in word:
        if tok not in ops:
            raise ValueError(f"unknown operator token {tok!r}")
    out = _as_poly(p)
    for tok in reversed(word):
        out = ops[tok](out)
    return out


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of comparing wick·delta^(2n) with (2n-1)!!·big_delta^n.

    Raw counts follow the a-priori bookkeeping: (2n-1)!! pairings times the
    2^(2n) sign expansions of the derivation on the left, and the closed-form
    term count (R(R-1)/2 + R + 1)^n on the right.  Canonical counts are the
    term counts after cancellation.
    """

    graph: Multigraph
    n: int
    lhs: GraphPolynomial
    rhs: GraphPolynomial
    equal: bool
    raw_lhs_terms: int
    raw_rhs_terms: int
    canonical_lhs_terms: int
    canonical_rhs_terms: int


class TermCounts(NamedTuple):
    raw_lhs: int
    raw_rhs: int
    canonical_lhs: int
    canonical_rhs: int


@_budgeted
def theorem_verify(g: Multigraph, n: int) -> TheoremReport:
    """Exact check that contracting 2n derivations of ``g`` equals
    (2n-1)!! iterated ``big_delta``.

    ``g`` must be leg-free.  Both sides share one work budget; a check that
    needs more raises :class:`BudgetError` instead of silently truncating.
    """
    if not g.is_leg_free():
        raise ValueError("theorem_verify expects a leg-free monomial")
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    scale = double_factorial(2 * n - 1)
    gc = canonicalize(g)
    r = len(gc.support)
    lhs = GraphPolynomial.monomial(gc)
    for _ in range(2 * n):
        lhs = delta(lhs)
    lhs = wick_contract(lhs)
    rhs = GraphPolynomial.monomial(gc)
    for _ in range(n):
        rhs = big_delta(rhs)
    rhs = rhs * scale
    return TheoremReport(
        graph=gc,
        n=n,
        lhs=lhs,
        rhs=rhs,
        equal=(lhs == rhs),
        raw_lhs_terms=scale * 4**n,
        raw_rhs_terms=(r * (r - 1) // 2 + r + 1) ** n,
        canonical_lhs_terms=len(lhs),
        canonical_rhs_terms=len(rhs),
    )


def term_count_report(g: Multigraph, n: int) -> TermCounts:
    """Raw and canonical term counts for the two sides of the identity."""
    rep = theorem_verify(g, n)
    return TermCounts(
        raw_lhs=rep.raw_lhs_terms,
        raw_rhs=rep.raw_rhs_terms,
        canonical_lhs=rep.canonical_lhs_terms,
        canonical_rhs=rep.canonical_rhs_terms,
    )
