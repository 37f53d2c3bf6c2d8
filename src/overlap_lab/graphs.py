"""Multigraph monomials over replica labels, and exact integer polynomials on
their isomorphism classes.

A monomial is written like ``{1,2}^2{1,3}{2}``: unordered edges ``{i,j}`` with
multiplicities (powers of the pairwise overlap between replicas i and j)
together with legs ``{v}`` (unpaired Gaussian insertions sitting on replica
v).  Quenched expectations only see the isomorphism class of the labeling, so
every container here keys terms by a canonical representative.

The canonical representative of a class is the minimum, under a fixed total
order on encodings, over candidate labelings produced by partition refinement
with individualization, run independently on each edge-connected component.
The candidate set is itself an isomorphism invariant, which makes the minimum
a complete invariant while keeping the search tiny for the sparse graphs that
occur here.

The canonical form of a multigraph is the sorted concatenation of its
components' encodings, held in one memo under two keys per component: the
component with its vertices relabeled 1..k in label order, which catches a
shape that comes back under shifted labels, and, on a miss, the component
relabeled in the order of its root refinement's cells, which catches it under
labels in another order.  Only a miss of both is searched, from the root
refinement already computed; every key is a labelled component, so a hit under
either kind of key is sound.  A lone vertex carrying only legs is encoded
directly.  Each component of a canonical graph is its encoding, shifted, on a
block of consecutive labels, so the derivation's growth by one leg
(:func:`_grow_leg`) encodes only the component that gains it again and
reassembles the rest as they are, without splitting the whole graph.  The
search prunes by automorphisms (McKay & Piperno, *Practical graph isomorphism
II*, 2014): two leaves with equal encodings give an automorphism, and a child
whose orbit, under the automorphisms found so far that fix the vertices
individualized above it, meets a searched sibling is skipped, or abandoned
once such an automorphism turns up.  Its subtree holds the same encodings as
the sibling's, so the minimum is the one the full search finds.  K_k then
takes k leaves instead of k!.

One work budget bounds the symbolic stack.  An outermost call (a
:func:`canonicalize` miss here; ``delta``, ``wick_contract``, ``big_delta``,
``apply_word`` or ``theorem_verify`` in :mod:`operators`) may spend
``WORK_BUDGET`` units through :func:`_spend`, and the calls inside it share
them.  Units are spent in proportion to the work done, so that one costs
about the same on a wide graph as on a deep derivation: a refinement round
spends a unit per vertex and per neighbour it keys, a canonical form one
per edge and leg (in :func:`canonicalize`, and in the Wick outcome it is
built for), and growing a leg on each vertex of g one per vertex times g's
edges and legs; :mod:`operators` spends for the terms, Wick outcomes,
listings and big-integer coefficients it handles.  Past the budget the call
raises :class:`BudgetError`.  Memo hits spend nothing, so a cold process
spends the same units on every run, and a warm call can pass where the same
call, cold, was refused.

A search holds no reference cycle, so reference counting frees its working
state the moment it returns.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import chain
from operator import index, itemgetter
from typing import Iterable, Mapping

__all__ = [
    "BudgetError",
    "Multigraph",
    "CanonicalMultigraph",
    "Pairing",
    "GraphPolynomial",
    "EMPTY",
    "make_multigraph",
    "edge",
    "leg",
    "compose",
    "relabel",
    "canonicalize",
    "work_counts",
    "WORK_BUDGET",
    "sort_key",
    "enumerate_pairings",
    "poly_add",
    "poly_scale",
    "poly_mul",
]


class Multigraph(tuple):
    """Edges as ``(i, j, mult)`` with ``i < j``, legs as ``(v, mult)``, both sorted.

    A monomial is the tuple ``(edges, legs)``: it is equal to that plain
    tuple, hashes like it and orders like it, so hashing, comparison and
    every dict or cache lookup keyed by a monomial run in C.  Absent
    pairs/vertices mean multiplicity zero.  Loop edges are banned: the
    diagonal overlap is identically one and never stored.  The support is
    exactly the set of vertices mentioned by an edge or a leg, so isolated
    vertices cannot be represented.  The constructor checks all of this;
    only :func:`_assemble`, which builds monomials from component encodings
    that are valid by construction, skips the checks.
    """

    __slots__ = ()

    def __new__(cls, edges=(), legs=()):
        edges, legs = tuple(edges), tuple(legs)
        prev = (0, 0)
        for i, j, m in edges:
            if not 0 < i < j:
                raise ValueError(f"edge ({i},{j}) must satisfy 0 < i < j")
            if m < 1:
                raise ValueError(f"edge ({i},{j}) has multiplicity {m} < 1")
            if (i, j) <= prev:
                raise ValueError("edges must be strictly sorted by vertex pair")
            prev = (i, j)
        prev_v = 0
        for v, n in legs:
            if v < 1:
                raise ValueError(f"leg vertex {v} must be >= 1")
            if n < 1:
                raise ValueError(f"leg at {v} has multiplicity {n} < 1")
            if v <= prev_v:
                raise ValueError("legs must be strictly sorted by vertex")
            prev_v = v
        return tuple.__new__(cls, (edges, legs))

    def __reduce__(self):
        # Pickle and copy rebuild through the checked constructor, under
        # every protocol; tuple's own reduction would hand it the pair as
        # one argument, or skip it.
        return type(self), tuple(self)

    edges = property(itemgetter(0), doc="``(i, j, mult)`` triples, sorted.")
    legs = property(itemgetter(1), doc="``(v, mult)`` pairs, sorted.")

    @property
    def support(self) -> tuple[int, ...]:
        verts = {v for v, _ in self[1]}
        for i, j, _ in self[0]:
            verts.add(i)
            verts.add(j)
        return tuple(sorted(verts))

    @property
    def grading(self) -> tuple[int, int]:
        """(total edge multiplicity, total leg multiplicity)."""
        return (
            sum(m for _, _, m in self.edges),
            sum(n for _, n in self.legs),
        )

    def edge_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): m for i, j, m in self.edges}

    def leg_dict(self) -> dict[int, int]:
        return {v: n for v, n in self.legs}

    def is_leg_free(self) -> bool:
        return not self.legs

    def __repr__(self):
        return f"Multigraph(edges={list(self.edges)}, legs={list(self.legs)})"


#: Canonical multigraphs are ordinary :class:`Multigraph` values that are
#: fixed points of :func:`canonicalize`; no separate wrapper type is used.
CanonicalMultigraph = Multigraph

#: A pairing is a tuple of ordered pairs: within each pair the earlier label
#: comes first, and first members strictly increase across pairs.
Pairing = tuple[tuple[int, int], ...]

EMPTY = Multigraph()


def make_multigraph(edge_list=(), leg_list=()) -> Multigraph:
    """Build a multigraph from ``(i, j, mult)`` edges and ``(v, mult)`` legs.

    Repeated pairs/vertices accumulate.  Loop edges and nonpositive
    multiplicities are rejected.
    """
    edges: dict[tuple[int, int], int] = {}
    for i, j, m in edge_list:
        i, j, m = index(i), index(j), index(m)
        if i == j:
            raise ValueError(f"loop edge ({i},{i}) is not allowed")
        if min(i, j) < 1:
            raise ValueError("vertex labels must be positive integers")
        if m < 1:
            raise ValueError(f"edge multiplicity {m} must be >= 1")
        key = (i, j) if i < j else (j, i)
        edges[key] = edges.get(key, 0) + m
    legs: dict[int, int] = {}
    for v, n in leg_list:
        v, n = index(v), index(n)
        if v < 1:
            raise ValueError("vertex labels must be positive integers")
        if n < 1:
            raise ValueError(f"leg multiplicity {n} must be >= 1")
        legs[v] = legs.get(v, 0) + n
    return Multigraph(
        tuple((i, j, m) for (i, j), m in sorted(edges.items())),
        tuple(sorted(legs.items())),
    )


def edge(i: int, j: int, mult: int = 1) -> Multigraph:
    return make_multigraph([(i, j, mult)])


def leg(v: int, mult: int = 1) -> Multigraph:
    return make_multigraph([], [(v, mult)])


def compose(g1: Multigraph, g2: Multigraph) -> Multigraph:
    """Same-label product: edge and leg multiplicities add pointwise."""
    return make_multigraph(g1.edges + g2.edges, g1.legs + g2.legs)


def relabel(g: Multigraph, mapping: Mapping[int, int]) -> Multigraph:
    """Apply a vertex relabeling; must be injective and cover the support."""
    missing = [v for v in g.support if v not in mapping]
    if missing:
        raise ValueError(f"mapping does not cover support vertices {missing}")
    images = [mapping[v] for v in g.support]
    if len(set(images)) != len(images):
        raise ValueError("mapping must be injective on the support")
    if images and min(images) < 1:
        raise ValueError("vertex labels must be positive integers")
    return make_multigraph(
        [(mapping[i], mapping[j], m) for i, j, m in g.edges],
        [(mapping[v], n) for v, n in g.legs],
    )


def sort_key(g: Multigraph) -> tuple:
    """Deterministic total order used for canonical choice and printing."""
    return (len(g.support), g.legs, g.edges)


#: Work units one outermost call of the symbolic stack may spend.
WORK_BUDGET = 4_500_000

#: Running totals of work done in this process: ``component_encodings_computed``
#: and ``component_encodings_reused`` (component memo misses and hits under
#: the label-order key), ``component_searches`` (misses under the root-order
#: key too), ``search_leaves`` (canonical-search leaves visited) and
#: ``pair_count_matrices`` (Wick pair-count matrices enumerated).  Readers
#: take differences of :func:`work_counts` snapshots.
work: Counter[str] = Counter(dict.fromkeys((
    "component_encodings_computed", "component_encodings_reused",
    "component_searches", "search_leaves", "pair_count_matrices"), 0))

#: Work units spent in this process, a plain int: :func:`_spend` is the
#: hottest call of the symbolic stack.
_units = 0

#: The ``_units`` total at which the running call's budget is spent; None
#: while no budgeted call runs.
_budget_end = None


class BudgetError(RuntimeError):
    """Raised when a requested computation exceeds its configured resource
    bound.  Callers get an explicit refusal, never a silent truncation."""


def _spend(units: int = 1) -> None:
    """Spend work units of the running call's budget; past its end, refuse."""
    global _units
    _units += units
    if _budget_end is not None and _units > _budget_end:
        raise BudgetError(f"the call needs more than WORK_BUDGET = {WORK_BUDGET} work units")


def _budgeted(f):
    """Wrap ``f`` to run in a budget of ``WORK_BUDGET`` units of its own when
    no budgeted call is running, and in the running one otherwise."""
    @functools.wraps(f)
    def call(*args, **kwargs):
        global _budget_end
        if _budget_end is not None:
            return f(*args, **kwargs)
        _budget_end = _units + WORK_BUDGET
        try:
            return f(*args, **kwargs)
        finally:
            _budget_end = None
    return call


def work_counts() -> dict[str, int]:
    """Running totals: the counters of ``work`` and the work units spent."""
    return {**work, "work_units": _units}


#: The encoding of every component met, under each of its two keys: its
#: ``(legs, edges)`` on labels 1..k in label order, and on labels in its
#: root refinement's order.
_component_memo: dict[tuple, tuple] = {}


def _component_encoding(legs: tuple, edges: tuple) -> tuple:
    """Minimal encoding ``(k, legs, edges)`` of one edge-connected component,
    given by its labelled, sorted legs and edges.

    The encoding is a complete invariant and does not depend on the input
    labels; :func:`_canonical_form` passes the vertices relabeled 1..k in
    label order, so components that differ by an order-preserving
    relabeling share one entry of the memo.  A miss refines the root once,
    looks the component up again relabeled in the order of the root's
    cells, and searches from those cells only when that key is new too; the
    answer is stored under both keys.  The search state, a
    :class:`_Search`, holds no reference cycle, so it is freed on return."""
    enc = _component_memo.get((legs, edges))
    if enc is not None:
        work["component_encodings_reused"] += 1
        return enc
    work["component_encodings_computed"] += 1
    search = _Search(legs, edges)
    cells = _refine(_initial_cells(search.adj, dict(legs)), search.adj)
    _, root_legs, root_edges = _encode(legs, edges, list(chain.from_iterable(cells)))
    enc = _component_memo.get((root_legs, root_edges))
    if enc is None:
        work["component_searches"] += 1
        search.search(cells)
        enc = _component_memo[root_legs, root_edges] = search.best
    _component_memo[legs, edges] = enc
    return enc


def _encode(legs: tuple, edges: tuple, order: list) -> tuple:
    """``(k, legs, edges)`` with ``order[p - 1]`` relabeled p, both sorted."""
    label = {v: pos for pos, v in enumerate(order, 1)}
    enc_legs = [(label[v], n) for v, n in legs]
    enc_legs.sort()
    enc_edges = []
    for i, j, m in edges:
        a, b = label[i], label[j]
        enc_edges.append((a, b, m) if a < b else (b, a, m))
    enc_edges.sort()
    return (len(order), tuple(enc_legs), tuple(enc_edges))


def _initial_cells(adj: dict, leg_at: dict) -> list:
    """The vertices grouped by (legs, degree, sorted edge multiplicities),
    groups in decreasing order of that key, each group sorted."""
    groups = defaultdict(list)
    for v, nbrs in adj.items():
        mults = tuple(sorted((m for _, m in nbrs), reverse=True))
        groups[(leg_at.get(v, 0), sum(mults), mults)].append(v)
    return [sorted(groups[s]) for s in sorted(groups, reverse=True)]


def _refine(cells: list, adj: dict) -> list:
    """Split every cell, a sorted list of vertices, by its vertices' sorted
    ``(multiplicity, neighbour's cell)`` lists, the parts in decreasing key
    order, until no cell splits.  Each part is filled in order from a sorted
    cell, so it is sorted too, and a cell that does not split is kept as it
    is.  Each round spends a unit per vertex and per neighbour keyed."""
    while True:
        color = {v: c for c, cell in enumerate(cells) for v in cell}
        out, changed, keyed = [], False, len(color)
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets = {}
            for v in cell:
                key = [(m, color[u]) for u, m in adj[v]]
                keyed += len(key)
                key.sort(reverse=True)
                key = tuple(key)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [v]
                else:
                    bucket.append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                changed = True
                for key in sorted(buckets, reverse=True):
                    out.append(buckets[key])
        _spend(keyed)
        if not changed:
            return out
        cells = out


class _Search:
    """State of one component's canonical search.  Its methods reach each
    other through the instance, never through a closure, so nothing in it
    refers back to it."""

    __slots__ = ("adj", "legs", "edges", "best", "first_leaf",
                 "automorphisms", "path", "explored", "abandon")

    def __init__(self, legs: tuple, edges: tuple):
        adj = defaultdict(list)
        for i, j, m in edges:
            adj[i].append((j, m))
            adj[j].append((i, m))
        self.adj, self.legs, self.edges = adj, legs, edges
        self.best = None
        self.first_leaf = {}  # encoding -> first leaf's order
        self.automorphisms = []
        self.path = []  # vertices individualized on the way to this node
        self.explored = []  # per level of path: children searched
        self.abandon = None  # level whose current child repeats a searched sibling

    def in_orbit(self, v, targets, level):
        # Orbit of v under the automorphisms found so far that fix
        # path[:level] pointwise; such an automorphism maps the subtree of
        # one child onto the subtree of another, leaf encodings included.
        fixed = self.path[:level]
        usable = [a for a in self.automorphisms if all(a[u] == u for u in fixed)]
        orbit, frontier = {v}, [v]
        while frontier:
            u = frontier.pop()
            for a in usable:
                w = a[u]
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        return not orbit.isdisjoint(targets)

    def leaf(self, order):
        work["search_leaves"] += 1
        enc = _encode(self.legs, self.edges, order)
        if self.best is None or enc < self.best:
            self.best = enc
        first = self.first_leaf.setdefault(enc, order)
        if first is order:
            return
        # Equal encodings: mapping this leaf's order onto the first one's is
        # an automorphism.  Abandon the shallowest subtree on the current
        # path that it shows to repeat one already searched.
        gamma = dict(zip(order, first))
        self.automorphisms.append(gamma)
        for level, v in enumerate(self.path):
            if self.explored[level] and self.in_orbit(v, self.explored[level], level):
                self.abandon = level
                return
            if gamma[v] != v:
                return

    def search(self, cells):
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            self.leaf([cell[0] for cell in cells])
            return
        path = self.path
        level = len(path)
        done = []
        self.explored.append(done)
        for v in cell:
            if done and self.in_orbit(v, done, level):
                continue
            path.append(v)
            rest = [u for u in cell if u != v]
            self.search(_refine(cells[:idx] + [[v], rest] + cells[idx + 1 :], self.adj))
            path.pop()
            if self.abandon is not None:
                if self.abandon < level:
                    break
                self.abandon = None
            done.append(v)
        self.explored.pop()


def _canonical_form(edges, legs) -> Multigraph:
    """Canonical representative of the multigraph with these ``(i, j, m)``
    edges and ``(v, n)`` legs, each sorted with distinct pairs/vertices.

    The labels are small: :func:`canonicalize` compresses them to their
    ranks, and a Wick outcome carries a canonical term's labels and at most
    two fresh ones.  So each component is held as an int whose bit v is set
    for each of its labels, and the components stay in order of their
    smallest label, the order in which their edges first occur.  The form
    is the concatenation of the components' encodings in sorted order:
    each component with edges is looked up in the component memo under its
    labels normalized to 1..k, and a lone vertex with legs needs no search.
    """
    comps = []
    for i, j, _ in edges:
        m = 1 << i | 1 << j
        for k, c in enumerate(comps):
            if c & m:
                if c | m != c:
                    # The edge's other end is new here, or lies in one
                    # later component: join them in this one's place.
                    m |= c
                    for later in range(k + 1, len(comps)):
                        if comps[later] & m:
                            m |= comps.pop(later)
                            break
                    comps[k] = m
                break
        else:
            comps.append(m)
    if len(comps) == 1:
        parts = [(comps[0], edges, [])]
    else:
        parts = [(c, [e for e in edges if c >> e[0] & 1], []) for c in comps]
    encodings = []
    for v, n in legs:
        for c, _, part_legs in parts:
            if c >> v & 1:
                part_legs.append((v, n))
                break
        else:
            encodings.append((1, ((1, n),), ()))
    for c, part_edges, part_legs in parts:
        if c != (2 << c.bit_count()) - 2:
            # Relabel to 1..k in label order, which keeps both lists sorted.
            label, pos = {}, 0
            while c:
                low = c & -c
                pos += 1
                label[low.bit_length() - 1] = pos
                c ^= low
            part_legs = [(label[v], n) for v, n in part_legs]
            part_edges = [(label[i], label[j], m) for i, j, m in part_edges]
        encodings.append(_component_encoding(tuple(part_legs), tuple(part_edges)))
    return _assemble(encodings)


def _assemble(encodings: list) -> Multigraph:
    """The canonical multigraph whose components have these encodings: their
    concatenation in sorted order, each shifted past the labels before it.
    Encodings are valid by construction, so the monomial is built without
    the constructor's checks, here and nowhere else."""
    if len(encodings) == 1:
        _, enc_legs, enc_edges = encodings[0]
        return tuple.__new__(Multigraph, (enc_edges, enc_legs))
    out_edges, out_legs, offset = [], [], 0
    for k, enc_legs, enc_edges in sorted(encodings):
        if offset:
            out_legs += [(v + offset, n) for v, n in enc_legs]
            out_edges += [(i + offset, j + offset, m) for i, j, m in enc_edges]
        else:
            out_legs += enc_legs
            out_edges += enc_edges
        offset += k
    return tuple.__new__(Multigraph, (tuple(out_edges), tuple(out_legs)))


def _encodings(g: Multigraph) -> list:
    """The component encodings of a canonical multigraph, in label order;
    the inverse of :func:`_assemble`.  Each component is a block of
    consecutive labels, ending where no edge crosses, and is its encoding
    shifted past the labels before it."""
    legs, edges = g.legs, g.edges
    reach = {i: j for i, j, _ in edges}  # edges are sorted: each i's largest j
    encodings, s, end, a, b = [], 0, 0, 0, 0
    for v in range(1, len(g.support) + 1):
        end = max(end, reach.get(v, v))
        if v == end:  # no edge crosses v: labels s+1..v are one component
            a2, b2 = bisect_left(legs, (v + 1,)), bisect_left(edges, (v + 1,))
            encodings.append((v - s, tuple((w - s, n) for w, n in legs[a:a2]),
                              tuple((i - s, j - s, m) for i, j, m in edges[b:b2])))
            s, a, b = v, a2, b2
    return encodings


def _grow_leg(g: Multigraph) -> tuple[list, Multigraph]:
    """For a canonical ``g``: the ``(canonical graph, count)`` pairs that one
    leg more on a support vertex makes, and g with a leg on the fresh vertex.
    Only the component that gains the leg is encoded again (a lone vertex
    directly); identical components are grown once, times their copies.
    It spends a unit per vertex of g times its edges and legs, plus one."""
    _spend(len(g.support) * (1 + len(g.edges) + len(g.legs)))
    encodings = _encodings(g)
    pairs = []
    for enc, copies in Counter(encodings).items():
        rest = list(encodings)
        rest.remove(enc)
        k, enc_legs, enc_edges = enc
        grown: Counter = Counter()
        for u in range(1, k + 1):
            at = dict(enc_legs)
            at[u] = at.get(u, 0) + 1
            at = tuple(sorted(at.items()))
            grown[_component_encoding(at, enc_edges) if enc_edges else (1, at, ())] += 1
        pairs.extend((_assemble(rest + [e]), copies * n) for e, n in grown.items())
    return pairs, _assemble(encodings + [(1, ((1, 1),), ())])


@functools.lru_cache(maxsize=None)
@_budgeted
def canonicalize(g: Multigraph) -> Multigraph:
    """Canonical representative of the isomorphism class of ``g``.

    The support is relabeled to ``{1..k}``; two multigraphs related by any
    vertex bijection map to the same output, and the map is idempotent.
    Components are canonicalized independently and concatenated in encoding
    order, which also erases gaps left by unused labels.
    """
    edges, legs = g
    if not edges and not legs:
        return g
    _spend(len(edges) + len(legs))
    support = g.support
    if support[-1] != len(support):
        # Labels to their ranks, so that no component mask is sized by a
        # label's value; the order, and so the sorting, is kept.
        rank = {v: pos for pos, v in enumerate(support, 1)}
        edges = tuple((rank[i], rank[j], m) for i, j, m in edges)
        legs = tuple((rank[v], n) for v, n in legs)
    return _canonical_form(edges, legs)


def enumerate_pairings(labels: Iterable[int]) -> list[Pairing]:
    """All pairings of the given ordered labels.

    Within each pair the earlier label comes first, and first members
    strictly increase across pairs, so each perfect matching appears exactly
    once; there are (2m-1)!! of them.  An odd number of labels gives an empty
    list (the contraction-annihilates case).
    """
    items = list(labels)
    if len(set(items)) != len(items):
        raise ValueError("labels must be distinct")
    if len(items) % 2:
        return []
    out: list[Pairing] = []
    _extend_pairings(items, [], out)
    return out


def _extend_pairings(rem: list, acc: list, out: list) -> None:
    """Append to ``out`` every pairing that extends the pairs ``acc`` by a
    pairing of the labels ``rem``, pairing the first label first."""
    if not rem:
        out.append(tuple(acc))
        return
    first = rem[0]
    for t in range(1, len(rem)):
        acc.append((first, rem[t]))
        _extend_pairings(rem[1:t] + rem[t + 1 :], acc, out)
        acc.pop()


class GraphPolynomial:
    """Finite linear combination of canonical multigraphs with exact signed
    arbitrary-precision integer coefficients.  Zero coefficients are never
    stored; every construction path adds coefficients by canonical class in
    :meth:`_sum`."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = []
        for g, c in items:
            if not isinstance(g, Multigraph):
                raise TypeError(f"expected Multigraph key, got {type(g).__name__}")
            pairs.append((canonicalize(g), index(c)))
        self._terms = GraphPolynomial._sum(pairs)._terms

    @classmethod
    def _sum(cls, pairs: Iterable[tuple[Multigraph, int]]) -> "GraphPolynomial":
        """The sum of ``(canonical graph, coefficient)`` pairs: coefficients
        add by graph and zero totals are dropped.  Every signed sum of
        polynomials is built here."""
        acc: dict[Multigraph, int] = {}
        for g, c in pairs:
            acc[g] = acc.get(g, 0) + c
        p = object.__new__(cls)
        p._terms = {g: c for g, c in acc.items() if c}
        return p

    @classmethod
    def zero(cls) -> "GraphPolynomial":
        return cls._sum(())

    @classmethod
    def monomial(cls, g: Multigraph, coeff: int = 1) -> "GraphPolynomial":
        return cls(((g, coeff),))

    def items(self) -> list[tuple[Multigraph, int]]:
        """Terms as (canonical graph, coefficient), in :func:`sort_key` order."""
        return sorted(self._terms.items(), key=lambda t: sort_key(t[0]))

    def coefficient(self, g: Multigraph) -> int:
        return self._terms.get(canonicalize(g), 0)

    def coefficient_sum(self) -> int:
        """Value under the scalar evaluation sending every monomial to 1."""
        return sum(self._terms.values())

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, GraphPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, GraphPolynomial):
            return NotImplemented
        return GraphPolynomial._sum(chain(self._terms.items(), other._terms.items()))

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, GraphPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GraphPolynomial):
            return GraphPolynomial._sum(
                (canonicalize(compose(g1, g2)), c1 * c2)
                for g1, c1 in self._terms.items()
                for g2, c2 in other._terms.items()
            )
        try:
            c = index(other)
        except TypeError:
            return NotImplemented
        return GraphPolynomial._sum((g, c * v) for g, v in self._terms.items())

    __rmul__ = __mul__

    def __repr__(self):
        return f"GraphPolynomial({len(self._terms)} terms)"


def poly_add(p: GraphPolynomial, q: GraphPolynomial) -> GraphPolynomial:
    return p + q


def poly_scale(p: GraphPolynomial, c: int) -> GraphPolynomial:
    return p * c


def poly_mul(p: GraphPolynomial, q: GraphPolynomial) -> GraphPolynomial:
    """Bilinear extension of :func:`compose` (same-label multiplication)."""
    return p * q
