"""The benchmark still finds every name it wraps or reads in the package.

``perfbench/tracer.py`` replaces a fixed list of functions (and counts calls
of ``lab._softmax`` and ``lab._softmax_last``), and ``perfbench/worker.py``
reads ``graphs.canonicalize.cache_info()`` in every pass; renaming or
deleting one of them would otherwise surface only in a benchmark run.
"""

import os
import sys

import overlap_lab
import overlap_lab.cli  # noqa: F401  (the worker imports it before tracing)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import TRACED, Tracer
    finally:
        sys.path.remove(PERFBENCH)
    lab = overlap_lab.lab
    before = {name: getattr(lab, name) for name in ("_softmax", "_softmax_last",
                                                    *TRACED["lab"])}
    tracer = Tracer(overlap_lab)
    tracer.install()
    try:
        assert set(tracer.originals) == {
            f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns
        }
        assert all(getattr(lab, name) is not fn for name, fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(lab, name) is fn for name, fn in before.items())


def test_canonicalize_keeps_its_cache_info():
    # Every benchmark pass reads the whole-graph cache's counters.
    info = overlap_lab.graphs.canonicalize.cache_info()
    assert info.hits >= 0 and info.misses >= 0
