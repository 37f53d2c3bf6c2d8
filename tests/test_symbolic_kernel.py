"""The symbolic stack's kernels: the canonical search's answers and work are
pinned, and no call leaves cyclic garbage behind.

A search that holds a reference cycle is freed only by the cyclic garbage
collector, whose collections then grow with the number of searches; each
check below runs with the collector off and asks it afterwards whether it
finds anything to free.
"""

import gc
import hashlib

import pytest

from overlap_lab import GraphPolynomial, graphs, make_multigraph, operators
from overlap_lab.operators import DELTA, WICK, BudgetError


def graph(edges, legs=()):
    return make_multigraph([(i, j, 1) for i, j in edges], legs)


P4 = graph([(1, 2), (2, 3), (3, 4)])
C4 = graph([(1, 2), (2, 3), (3, 4), (1, 4)])
K6 = graph([(i, j) for i in range(1, 7) for j in range(i + 1, 7)])
K7 = graph([(i, j) for i in range(1, 8) for j in range(i + 1, 8)])
K44 = graph([(i, j) for i in range(1, 5) for j in range(5, 9)])
PETERSEN = graph([(i, i % 5 + 1) for i in range(1, 6)]
                 + [(i, i + 5) for i in range(1, 6)]
                 + [(6 + i, 6 + (i + 2) % 5) for i in range(5)])


def test_search_answers_and_work_are_pinned(fresh_memos, monkeypatch):
    # The encodings of the components looked up, by their label-order keys,
    # and the leaves visited in the cold verify of P4 and C4 at n=3 and the
    # four empty-word graphs of the benchmark's algebra workload.  A rewrite
    # of the search must find the same minimum for every component it
    # meets, by the same walk.
    memo = {}
    encoding = graphs._component_encoding

    def recording(legs, edges):
        memo[legs, edges] = enc = encoding(legs, edges)
        return enc

    monkeypatch.setattr(graphs, "_component_encoding", recording)
    before = graphs.work_counts()["search_leaves"]
    for g in (P4, C4):
        assert operators.theorem_verify(g, 3).equal
    for g in (K6, K7, K44, PETERSEN):
        operators.apply_word([], GraphPolynomial.monomial(g))
    digest = hashlib.sha256(repr(sorted(memo.items())).encode()).hexdigest()
    assert len(memo) == 1630
    assert digest == "9bcd198ac6385aa5256e986f5cb283c39f403381149bed7f1bca3fc14d7ea4f8"
    assert graphs.work_counts()["search_leaves"] - before == 786


def _refused_wick():
    # 20 legs on 10 vertices: the matrices are counted, and found too many.
    legs = [(v, 2) for v in range(1, 11)]
    with pytest.raises(BudgetError, match="pair-count matrices"):
        operators.wick_contract(graph([], legs))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: operators.theorem_verify(P4, 3), id="verify-P4-n3"),
    pytest.param(lambda: operators.apply_word([WICK] + [DELTA] * 8,
                                              graph([(1, 2)])), id="Cd8-edge"),
    pytest.param(lambda: operators.apply_word([], K7), id="empty-word-K7"),
    pytest.param(lambda: operators.wick_contract(graph([], [(1, 5), (2, 3), (3, 2)])),
                 id="wick-new-degrees"),
    pytest.param(_refused_wick, id="wick-refused-by-count"),
])
def test_no_cyclic_garbage(fresh_memos, call):
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
