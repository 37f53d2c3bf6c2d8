"""The numerical lab loads on first use: symbolic commands never import numpy.

Each import check runs in a fresh interpreter, because this process already
holds numpy and the lab.  ``PYTHONDONTWRITEBYTECODE=1`` keeps the runs from
writing bytecode next to the sources.
"""

import json
import os
import subprocess
import sys

import pytest

import overlap_lab
from overlap_lab import (
    identity_check,
    parse_monomial,
    sk_model,
    to_json,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Helpers of every fresh-interpreter script: ``loaded()`` lists which of the
#: modules that only numerical commands need are imported, ``run(argv)``
#: calls the CLI with its output discarded.
PRELUDE = """
import io, json, sys
from contextlib import redirect_stdout

def loaded():
    return [m for m in ("numpy", "overlap_lab.lab", "overlap_lab.streams")
            if m in sys.modules]

def run(argv):
    import overlap_lab.cli
    with redirect_stdout(io.StringIO()):
        return overlap_lab.cli.main(argv)
"""


def fresh(script: str, *args: str):
    """Run ``script`` after PRELUDE in a new interpreter; return the JSON of
    its last output line."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PRELUDE + script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


SYMBOLIC_COMMANDS = [
    ["expand", "--graph", "{1,2}", "--word", "C d d"],
    ["verify", "--graph", "{1,2}{2,3}", "--n", "2"],
    ["counts", "--graph", "{1,2}", "--n", "2"],
]


class TestImportGraph:
    def test_symbolic_commands_load_no_numpy(self):
        seen = fresh("""
out = {}
import overlap_lab
out["import overlap_lab"] = loaded()
import overlap_lab.cli
out["import overlap_lab.cli"] = loaded()
for argv in json.loads(sys.argv[1]):
    for extra in ([], ["--json"]):
        out[" ".join(argv + extra)] = [run(argv + extra), loaded()]
print(json.dumps(out))
""", json.dumps(SYMBOLIC_COMMANDS))
        assert seen.pop("import overlap_lab") == []
        assert seen.pop("import overlap_lab.cli") == []
        assert len(seen) == 2 * len(SYMBOLIC_COMMANDS)
        assert all(state == [0, []] for state in seen.values()), seen

    def test_estimate_loads_the_lab(self):
        code, after = fresh("""
code = run(["estimate", "--N", "2", "--graph", "{1,2}", "--samples", "20"])
print(json.dumps([code, loaded()]))
""")
        assert code == 0
        assert {"numpy", "overlap_lab.lab"} <= set(after)


#: Public names of the package at the commit before the lab became lazy:
#: ``dir(overlap_lab)`` and ``from overlap_lab import *`` in a fresh
#: interpreter, without the underscored ones.
PUBLIC_NAMES = [
    "BudgetError", "CanonicalMultigraph", "DELTA", "DeformationConfig", "EMPTY",
    "ExpressionParseError", "GraphPolynomial", "IdentityReport", "IdentityRow",
    "JsonSchemaError", "ModelInstance", "Multigraph", "Pairing", "QuenchedEstimate",
    "TermCounts", "TheoremReport", "WICK", "apply_word", "big_delta", "canonicalize",
    "compose", "deformed_expectation", "delta", "delta_formula_direct", "delta_v_minus",
    "delta_v_plus", "double_factorial", "ea_model", "edge", "enumerate_pairings",
    "exprio", "fd_derivative", "format_monomial", "format_polynomial", "fresh_vertex",
    "from_json", "gaussian_ibp_check", "gibbs_weights", "graphs", "identity_check",
    "lab", "leg", "link_overlap_ea", "make_multigraph", "operators", "overlap_sk",
    "parse_monomial", "parse_polynomial", "poly_add", "poly_mul", "poly_scale",
    "quadrature_expectation", "quenched_expectation", "relabel", "replica_moment",
    "sk_model", "sort_key", "stability_deviation", "term_count_report",
    "theorem_verify", "to_json", "wick_baseline_check", "wick_contract",
]


class TestPublicApi:
    def test_names_as_before(self):
        listed, starred = fresh("""
import overlap_lab
listed = [n for n in dir(overlap_lab) if not n.startswith("_")]
space = {}
exec("from overlap_lab import *", space)
print(json.dumps([listed, sorted(n for n in space if not n.startswith("_"))]))
""")
        assert listed == PUBLIC_NAMES
        assert starred == PUBLIC_NAMES

    @pytest.mark.parametrize("name", sorted(overlap_lab._LAB_NAMES))
    def test_lab_names_are_the_lab_objects(self, name):
        assert getattr(overlap_lab, name) is getattr(overlap_lab.lab, name)

    def test_unknown_attribute_raises(self):
        assert not hasattr(overlap_lab, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            overlap_lab.no_such_name  # noqa: B018


#: Round-trips one document through ``from_json`` and ``to_json`` and prints
#: whether the lab was loaded before and after, and whether it held.
ROUND_TRIP = """
from overlap_lab import exprio
text = sys.argv[1]
before = loaded()
report = exprio.from_json(text)
same = exprio.from_json(exprio.to_json(report)) == report
print(json.dumps([type(report).__name__, before, loaded(), same]))
"""


class TestJsonRoundTrip:
    def test_theorem_report_and_unknown_tag_load_no_lab(self):
        seen = fresh("""
from overlap_lab import exprio, parse_monomial, theorem_verify
report = theorem_verify(parse_monomial("{1,2}{2,3}"), 2)
same = exprio.from_json(exprio.to_json(report)) == report
try:
    exprio.from_json('{"type": "no_such_report", "payload": {}}')
    refused = False
except exprio.JsonSchemaError:
    refused = True
print(json.dumps({"same": same, "refused": refused, "loaded": loaded()}))
""")
        assert seen == {"same": True, "refused": True, "loaded": []}

    @pytest.mark.parametrize("report", [
        overlap_lab.QuenchedEstimate(0.25, 0.0, 64, 0, "quadrature", truncation=1e-12),
        identity_check(sk_model(2, 0.5), parse_monomial("{1,2}"), 1, method="quadrature",
                       n_nodes=8),
    ], ids=["quenched_estimate", "identity_report"])
    def test_lab_reports_load_the_lab_on_demand(self, report):
        name, before, after, same = fresh(ROUND_TRIP, to_json(report))
        assert name == type(report).__name__
        assert before == []
        assert {"numpy", "overlap_lab.lab"} <= set(after)
        assert same
