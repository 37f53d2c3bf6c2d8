"""Shared helpers: random graph generation and independent oracles.

The oracles here are deliberately written from the raw definitions (direct
enumeration, exact rationals) and share no code with the library kernels
they cross-check.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import strategies as st

from overlap_lab import GraphPolynomial, Multigraph, make_multigraph


def package_modules() -> list:
    """The package and each of its modules."""
    import overlap_lab

    return [overlap_lab] + [importlib.import_module(f"overlap_lab.{info.name}")
                            for info in pkgutil.iter_modules(overlap_lab.__path__)]


@contextlib.contextmanager
def empty_memos():
    """Give every memoized function of the package an empty memo, shared by
    all the modules that import it, and the component and pair-count matrix
    memos empty dicts, until the block exits."""
    from overlap_lab import graphs, operators

    with pytest.MonkeyPatch.context() as patch:
        fresh = {}
        for module in package_modules():
            for name, f in list(vars(module).items()):
                if hasattr(f, "cache_info") and hasattr(f, "__wrapped__"):
                    if id(f) not in fresh:
                        fresh[id(f)] = functools.lru_cache(maxsize=None)(f.__wrapped__)
                    patch.setattr(module, name, fresh[id(f)])
        patch.setattr(graphs, "_component_memo", {})
        patch.setattr(operators, "_matrix_lists", {})
        yield


@pytest.fixture
def fresh_memos():
    """:func:`empty_memos` for the duration of a test."""
    with empty_memos():
        yield


def random_multigraph(rnd: random.Random, max_vertices=5, max_edges=3,
                      max_legs=2, max_mult=3) -> Multigraph:
    k = rnd.randint(1, max_vertices)
    verts = rnd.sample(range(1, 12), k)
    edges = []
    if k >= 2:
        for _ in range(rnd.randint(0, max_edges)):
            i, j = rnd.sample(verts, 2)
            edges.append((i, j, rnd.randint(1, max_mult)))
    legs = [(rnd.choice(verts), rnd.randint(1, max_mult))
            for _ in range(rnd.randint(0, max_legs))]
    if not edges and not legs:
        legs = [(verts[0], 1)]
    return make_multigraph(edges, legs)


@st.composite
def multigraphs(draw, max_vertices=5, max_edges=3, max_legs=2, max_mult=3):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_multigraph(random.Random(seed), max_vertices, max_edges,
                             max_legs, max_mult)


@st.composite
def polynomials(draw):
    """Up to three :func:`multigraphs` with small signed coefficients;
    isomorphic terms may merge or cancel."""
    terms = draw(st.lists(st.tuples(multigraphs(), st.integers(-3, 3)), max_size=3))
    return GraphPolynomial(terms)


@st.composite
def leg_free_multigraphs(draw, max_vertices=4, max_edges=3, max_mult=2):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rnd = random.Random(seed)
    k = rnd.randint(2, max_vertices)
    verts = rnd.sample(range(1, 9), k)
    edges = []
    for _ in range(rnd.randint(1, max_edges)):
        i, j = rnd.sample(verts, 2)
        edges.append((i, j, rnd.randint(1, max_mult)))
    return make_multigraph(edges)


def count_matchings(n: int) -> int:
    """Independent recursive perfect-matching counter: f(n) = (n-1) f(n-2)."""
    if n % 2:
        return 0
    if n == 0:
        return 1
    return (n - 1) * count_matchings(n - 2)


def brute_force_matchings(labels):
    """All perfect matchings as sets of frozenset pairs, by raw recursion on
    an unordered representation (independent of the library's ordering)."""
    items = list(labels)
    if not items:
        return [frozenset()]
    if len(items) % 2:
        return []
    first = items[0]
    out = []
    for pos in range(1, len(items)):
        rest = items[1:pos] + items[pos + 1:]
        pair = frozenset((first, items[pos]))
        for match in brute_force_matchings(rest):
            out.append(match | {pair})
    return out


def beta0_oracle(kind: str, param, poly: GraphPolynomial) -> Fraction:
    """Exact infinite-temperature quenched expectation of a leg-free
    polynomial: a direct rational sum over independent uniform replicas,
    straight from the overlap definitions.

    ``param`` is the spin count for "sk" or the bond list for "ea".
    """
    if kind == "sk":
        n = param
        configs = list(product((-1, 1), repeat=n))

        def cov(a, b):
            return Fraction(sum(x * y for x, y in zip(a, b)), n) ** 2

    else:
        bonds = list(param)
        n = max(max(b) for b in bonds) + 1
        configs = list(product((-1, 1), repeat=n))

        def cov(a, b):
            return Fraction(
                sum(a[i] * a[j] * b[i] * b[j] for i, j in bonds), len(bonds)
            )

    total = Fraction(0)
    for g, coeff in poly.items():
        r = len(g.support)
        acc = Fraction(0)
        for combo in product(configs, repeat=r):
            term = Fraction(1)
            for i, j, m in g.edges:
                term *= cov(combo[i - 1], combo[j - 1]) ** m
            acc += term
        total += coeff * acc / Fraction(len(configs) ** r)
    return total
