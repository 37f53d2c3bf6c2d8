"""Canonical labeling against an independent isomorphism test.

On vertex-transitive and highly symmetric multigraphs (cycles, complete
graphs, K4,4, the Petersen graph, the 3-cube, and copies with doubled edges
and with legs), two multigraphs get the same canonical form exactly when
``networkx.is_isomorphic`` says they are isomorphic, edge multiplicity and
leg count carried as attributes.  The search itself is checked by the
leaves it visits, not by wall time.  The component memo, keyed by labels
normalized to 1..k in label order and by labels in the order of the root
refinement's cells, is checked against a memo-free search on the raw
labels.
"""

import random
from itertools import chain, combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_memos, multigraphs
from overlap_lab import Multigraph, canonicalize, compose, graphs, make_multigraph, relabel


def cycle(k):
    return [(i, i % k + 1) for i in range(1, k + 1)]


def complete(k):
    return list(combinations(range(1, k + 1), 2))


def k44():
    return [(i, j) for i in range(1, 5) for j in range(5, 9)]


def petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def cube():
    return [(a + 1, (a | 1 << b) + 1) for a in range(8) for b in range(3)
            if not a & 1 << b]


FAMILIES = {
    **{f"C{k}": cycle(k) for k in range(3, 9)},
    **{f"K{k}": complete(k) for k in range(2, 9)},
    "K4,4": k44(),
    "Petersen": petersen(),
    "cube": cube(),
}


def variants(pairs):
    """The plain graph, all edges doubled, one edge doubled, one leg on
    every vertex, and two legs on one vertex."""
    verts = sorted({v for e in pairs for v in e})
    plain = [(i, j, 1) for i, j in pairs]
    return {
        "plain": (plain, []),
        "doubled": ([(i, j, 2) for i, j in pairs], []),
        "one doubled": ([(i, j, 2 if k == 0 else 1) for k, (i, j) in enumerate(pairs)], []),
        "legs": (plain, [(v, 1) for v in verts]),
        "one leg": (plain, [(verts[0], 2)]),
    }


def relabeled(rnd, edges, legs):
    verts = sorted({v for i, j, _ in edges for v in (i, j)} | {v for v, _ in legs})
    image = dict(zip(verts, rnd.sample(range(1, 3 * len(verts) + 1), len(verts))))
    return make_multigraph(
        [(image[i], image[j], m) for i, j, m in edges],
        [(image[v], n) for v, n in legs],
    )


def perturbed(rnd, edges, legs):
    """One edge removed, added or changed in multiplicity, or one leg moved."""
    edges, legs = list(edges), list(legs)
    verts = sorted({v for i, j, _ in edges for v in (i, j)})
    kind = rnd.choice(("drop", "add", "bump", "leg"))
    if kind == "drop" and len(edges) > 1:
        edges.pop(rnd.randrange(len(edges)))
    elif kind == "add":
        i, j = rnd.sample(verts, 2)
        edges.append((i, j, 1))
    elif kind == "leg" and legs:
        v, n = legs.pop(rnd.randrange(len(legs)))
        legs.append((rnd.choice(verts), n))
    else:
        i, j, m = edges.pop(rnd.randrange(len(edges)))
        edges.append((i, j, m + 1))
    return edges, legs


def to_networkx(g):
    """Edge multiplicity and leg count as attributes.  Each node also carries
    its total edge multiplicity: isomorphisms preserve it, so matching on it
    changes no answer and spares VF2 dead ends on dense graphs."""
    out = nx.Graph()
    out.add_nodes_from(g.support, legs=0, load=0)
    for v, n in g.legs:
        out.nodes[v]["legs"] = n
    for i, j, m in g.edges:
        out.add_edge(i, j, mult=m)
        out.nodes[i]["load"] += m
        out.nodes[j]["load"] += m
    return out


def isomorphic(a, b):
    ga, gb = to_networkx(a), to_networkx(b)

    def node_labels(g):
        return sorted((d["legs"], d["load"]) for _, d in g.nodes(data=True))

    # VF2 does not compare label counts up front and would search K8 against
    # K8 with one doubled edge for seconds before failing.
    if node_labels(ga) != node_labels(gb):
        return False
    return nx.is_isomorphic(
        ga, gb,
        node_match=lambda x, y: x == y,
        edge_match=lambda x, y: x["mult"] == y["mult"],
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_canonical_form_is_a_complete_invariant(family):
    rnd = random.Random(family)
    for name, (edges, legs) in variants(FAMILIES[family]).items():
        base = make_multigraph(edges, legs)
        for _ in range(4):
            copy = relabeled(rnd, edges, legs)
            assert canonicalize(copy) == canonicalize(base), (family, name)
        graphs_ = [base] + [relabeled(rnd, *perturbed(rnd, edges, legs)) for _ in range(6)]
        for a, b in combinations(graphs_, 2):
            same = canonicalize(a) == canonicalize(b)
            assert same == isomorphic(a, b), (family, name, a, b)


def searched_encoding(legs, edges):
    """A component's encoding by a fresh canonical search on its own labels,
    with no memo read or written."""
    search = graphs._Search(tuple(legs), tuple(edges))
    search.search(graphs._refine(graphs._initial_cells(search.adj, dict(legs)), search.adj))
    return search.best


def search_leaves(edges, legs=()):
    """Leaves one uncached canonical search visits."""
    before = graphs.work_counts()["search_leaves"]
    searched_encoding(legs, edges)
    return graphs.work_counts()["search_leaves"] - before


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("mult,leg", [(1, 0), (2, 1)])
def test_search_on_complete_graphs_visits_quadratically_many_leaves(k, mult, leg):
    # Without orbit pruning the search visits all k! labelings.
    edges = [(i, j, mult) for i, j in complete(k)]
    legs = [(v, leg) for v in range(1, k + 1)] if leg else []
    assert search_leaves(edges, legs) <= k * k


@pytest.mark.parametrize("family", ["K4,4", "Petersen", "cube", "C8"])
def test_search_on_symmetric_graphs_stays_small(family):
    edges = sorted((min(i, j), max(i, j), 1) for i, j in FAMILIES[family])
    k = len({v for e in FAMILIES[family] for v in e})
    assert search_leaves(edges) <= k * k


def test_rook_and_shrikhande_graphs_differ():
    # Both are strongly regular with parameters (16, 6, 2, 2), so refinement
    # alone never tells them apart; only the search does.
    cells = [(a, b) for a in range(4) for b in range(4)]
    label = {c: n for n, c in enumerate(cells, 1)}
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    rook = make_multigraph([(label[u], label[v], 1) for u, v in combinations(cells, 2)
                            if u[0] == v[0] or u[1] == v[1]])
    shrikhande = make_multigraph([
        (label[u], label[v], 1) for u, v in combinations(cells, 2)
        if ((v[0] - u[0]) % 4, (v[1] - u[1]) % 4) in steps
    ])
    assert not isomorphic(rook, shrikhande)
    assert canonicalize(rook) != canonicalize(shrikhande)
    rnd = random.Random(16)
    for g in (rook, shrikhande):
        assert canonicalize(relabeled(rnd, g.edges, g.legs)) == canonicalize(g)


def memo_free_canonical(g):
    """Canonical form from a fresh search of every component on its raw
    labels, concatenated in encoding order."""
    parent = {v: v for v in g.support}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j, _ in g.edges:
        parent[root(i)] = root(j)
    parts = {}
    for i, j, m in g.edges:
        parts.setdefault(root(i), ([], []))[1].append((i, j, m))
    encodings = []
    for v, n in g.legs:
        if root(v) in parts:
            parts[root(v)][0].append((v, n))
        else:
            encodings.append((1, ((1, n),), ()))
    encodings += [searched_encoding(legs, edges) for legs, edges in parts.values()]
    out_edges, out_legs, offset = [], [], 0
    for k, legs, edges in sorted(encodings):
        out_legs += [(v + offset, n) for v, n in legs]
        out_edges += [(i + offset, j + offset, m) for i, j, m in edges]
        offset += k
    return Multigraph(tuple(out_edges), tuple(out_legs))


def gapped(rnd, g, shift=0):
    """``g`` on labels drawn without order from a range three times wider
    than its support, plus ``shift``."""
    verts = g.support
    images = rnd.sample(range(1, 3 * len(verts) + 1), len(verts))
    return relabel(g, {v: image + shift for v, image in zip(verts, images)})


@given(multigraphs(), multigraphs(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_canonical_form_equals_memo_free_search(a, b, rnd):
    # The second copy of ``a`` repeats its components' shapes under other
    # labels, so it is read from the memo within the same call.
    g = compose(gapped(rnd, a), gapped(rnd, compose(a, b), shift=40))
    assert canonicalize(g) == memo_free_canonical(g)


@given(multigraphs(), multigraphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_gapped_labels_agree_with_networkx(a, b, rnd):
    ga, gb = gapped(rnd, a), gapped(rnd, b)
    assert (canonicalize(ga) == canonicalize(gb)) == isomorphic(ga, gb)


@pytest.mark.parametrize("family", ["C5", "K5", "Petersen", "cube"])
def test_order_preserving_relabel_reuses_the_memo(family):
    edges, legs = variants(FAMILIES[family])["one leg"]
    g = make_multigraph(edges, legs)
    canonicalize(g)
    before = graphs.work_counts()
    shifted = relabel(g, {v: 1000 + 7 * v for v in g.support})
    assert canonicalize(shifted) == canonicalize(g)
    after = graphs.work_counts()
    assert after["component_encodings_computed"] == before["component_encodings_computed"]
    assert after["component_encodings_reused"] == before["component_encodings_reused"] + 1


@given(multigraphs(max_vertices=6, max_edges=6), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_relabeled_copies_equal_memo_free_search(g, rnd):
    # After g, each copy repeats its shapes under labels in another order,
    # which the root-refinement memo may answer without a search.
    canonicalize(g)
    for _ in range(4):
        copy = gapped(rnd, g)
        assert canonicalize(copy) == memo_free_canonical(copy) == memo_free_canonical(g)


SYMMETRIC_WITH_LEGS = {
    "K4": ([(i, j, 2 if (i, j) == (1, 2) else 1) for i, j in complete(4)], [(3, 1)]),
    "C6": ([(i, j, 2 if i == 1 else 1) for i, j in cycle(6)], [(1, 1), (4, 2)]),
    "K3,3": ([(i, j, 2 if (i, j) == (1, 4) else 1) for i in range(1, 4) for j in range(4, 7)],
             [(2, 1), (5, 1)]),
}


@pytest.mark.parametrize("family", sorted(SYMMETRIC_WITH_LEGS))
def test_symmetric_graphs_with_legs_equal_memo_free_search(family):
    # The root refinement leaves cells of several vertices here, so copies
    # meet the root-order key under labels in several orders.
    edges, legs = SYMMETRIC_WITH_LEGS[family]
    base = make_multigraph(edges, legs)
    rnd = random.Random(family)
    for _ in range(20):
        copy = relabeled(rnd, edges, legs)
        assert canonicalize(copy) == memo_free_canonical(copy) == canonicalize(base)


def test_a_shape_under_two_labelings_is_searched_once(fresh_memos):
    # A path with a double edge and a leg, then the same path with its labels
    # reversed: two keys of the order-normalized memo, one key once the
    # vertices are relabeled by the root refinement, so one search.
    a = make_multigraph([(1, 2, 2), (2, 3, 1), (3, 4, 1)], [(4, 1)])
    b = relabel(a, {1: 4, 2: 3, 3: 2, 4: 1})
    assert a != b
    before = graphs.work_counts()
    graphs.canonicalize(a)
    leaves = graphs.work_counts()["search_leaves"]
    assert graphs.canonicalize(b) == graphs.canonicalize(a)
    after = graphs.work_counts()
    assert after["search_leaves"] == leaves == before["search_leaves"] + 1
    assert after["component_encodings_computed"] - before["component_encodings_computed"] == 2
    assert after["component_searches"] - before["component_searches"] == 1


def test_a_cold_miss_refines_the_root_once(fresh_memos, monkeypatch):
    # The search starts from the root refinement the memo's second key is
    # read from; the refinement is not computed again for it.
    initial_cells, calls = graphs._initial_cells, []

    def counted(adj, leg_at):
        calls.append(len(adj))
        return initial_cells(adj, leg_at)

    monkeypatch.setattr(graphs, "_initial_cells", counted)
    graphs.canonicalize(make_multigraph([(i, j, 1) for i, j in complete(5)]))
    assert calls == [5]


def test_a_copy_on_its_root_order_is_reused(fresh_memos):
    # The memo holds each component under its root-order key as well, so a
    # copy labelled in the order of the root refinement's cells is a hit.
    a = make_multigraph([(1, 2, 2), (2, 3, 1), (3, 4, 1)], [(4, 1)])
    adj = graphs._Search(a.legs, a.edges).adj
    cells = graphs._refine(graphs._initial_cells(adj, dict(a.legs)), adj)
    copy = relabel(a, {v: pos for pos, v in enumerate(chain.from_iterable(cells), 1)})
    assert copy != a
    graphs.canonicalize(a)
    before = graphs.work_counts()
    assert graphs.canonicalize(copy) == graphs.canonicalize(a)
    after = graphs.work_counts()
    assert after["component_encodings_computed"] == before["component_encodings_computed"]
    assert after["component_encodings_reused"] == before["component_encodings_reused"] + 1


@given(st.lists(multigraphs(max_vertices=6, max_edges=6), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_lookup_order_does_not_change_a_form(gs, rnd):
    # A shape met first under one key answers later lookups under the other
    # kind; canonicalizing the same graphs in another order, from empty
    # memos, must give every graph the same form.
    inputs = [h for g in gs for h in (g, gapped(rnd, g), gapped(rnd, g))]
    forms = []
    for order in (inputs, rnd.sample(inputs, len(inputs))):
        with empty_memos():
            forms.append({g: graphs.canonicalize(g) for g in order})
    assert forms[0] == forms[1]
