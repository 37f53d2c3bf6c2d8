"""The benchmark still finds every name it wraps or reads in the package.

``perfbench/tracer.py`` replaces a fixed list of functions (and counts calls
of ``lab._softmax`` and ``lab._softmax_last``), and ``perfbench/worker.py``
reads ``graphs.canonicalize.cache_info()`` in every pass; renaming or
deleting one of them would otherwise surface only in a benchmark run.  The
package itself holds no ``assert`` statement, so its checks run under
``python -O`` as well, and no nested function that reaches itself through
its closure, so no call leaves a reference cycle behind.  Only
``cli.main`` times a command, counts its work, lifts the digit limit and
writes its output.  ``operators``
takes none of graphs' component-encoding internals.  Every constant the
README names in backticks is defined in a module of the package.  The
``fresh_memos`` fixture empties every memo of the package, and the package
holds exactly the memos listed in ``MEMOS``.  Only the model
and its constructors read a model's ``kind`` in the lab.  No disorder
rule's ``stats`` and no Gibbs normalization reduces through BLAS.  Only
``graphs._assemble`` builds a monomial past its constructor's checks, and
every term it builds for a theorem check passes them.  The theorem-suite
demo still shows a refusal, and the finite-size identities
demo runs with no violation.
"""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import overlap_lab
import overlap_lab.cli  # the worker imports it before tracing
from conftest import package_modules

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    from tracer import TRACED, Tracer
finally:
    sys.path.remove(PERFBENCH)


def test_tracer_installs_and_uninstalls():
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


def test_tracer_counts_one_gibbs_measure_per_node_and_lambda(capsys):
    # lab.gibbs_evals and lab.quadrature.nodes read these counts.  An SK N=2
    # quadrature at 8 nodes per axis: the n=2 identity evaluates 3 lambda
    # nodes on the 8 x 8 grid (0.05, 0.1 and 0.2: the stencil folded onto
    # |lambda|) and lambda = 0, which does not read the field, on the 8
    # Hamiltonian nodes; the estimate 1 on the grid and on the doubled one.
    quad = ["--model", "sk", "--N", "2", "--method", "quadrature", "--nodes", "8"]
    tracer = Tracer(overlap_lab)
    tracer.install()
    try:
        overlap_lab.cli.main(["identity", *quad, "--graph", "{1,2}", "--n", "2"])
        identity = tracer.counts["gibbs"]
        overlap_lab.cli.main(["estimate", *quad, "--graph", "{1,2}", "--lam", "0.3"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert identity == 3 * 8**2 + 8
    assert tracer.counts["gibbs"] - identity == 8**2 + 16**2


def test_canonicalize_keeps_its_cache_info():
    # Every benchmark pass reads the whole-graph cache's counters.
    info = overlap_lab.graphs.canonicalize.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def _src_trees():
    """Each module under ``src`` as ``(path, parsed tree)``."""
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                yield path, ast.parse(fh.read(), path)


def test_no_assert_statements_in_src():
    # Runtime checks raise explicit exceptions, so ``python -O`` keeps them.
    found = []
    for path, tree in _src_trees():
        found += [f"{path}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _nested_functions(scope):
    """The functions defined in ``scope``'s own body, not in a function or
    class inside it."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            yield node
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_nested_function_reaches_itself():
    # A nested function that calls itself, directly or through a sibling,
    # holds itself in its closure, so every call of the function around it
    # leaves a reference cycle that only the cyclic collector frees.
    found = []
    for path, tree in _src_trees():
        for scope in ast.walk(tree):
            if not isinstance(scope, FUNCTIONS):
                continue
            nested = {f.name: f for f in _nested_functions(scope)}
            calls = {name: {node.id for node in ast.walk(f)
                            if isinstance(node, ast.Name) and node.id in nested}
                     for name, f in nested.items()}
            for name, f in nested.items():
                reached, frontier = set(), [name]
                while frontier:
                    for callee in calls[frontier.pop()] - reached:
                        reached.add(callee)
                        frontier.append(callee)
                if name in reached:
                    found.append(f"{path}:{f.lineno} {scope.name}.{name}")
    assert found == []


#: The parts of a report's envelope that only ``cli.main`` may use.
ENVELOPE = {"_emit", "_exact_digits", "_work_counts", "_work_since", "perf_counter"}


def test_only_main_builds_a_report_envelope():
    # Each command returns its report; building the envelope in one place
    # keeps every command's timings, digit limit and output alike, and no
    # report or library call anywhere in src keeps a timer of its own.
    def used(node):
        return ({sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
                | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
                | {sub.name for sub in ast.walk(node) if isinstance(sub, ast.alias)})

    found = []
    for path, tree in _src_trees():
        cli = path == os.path.join(ROOT, "src", "overlap_lab", "cli.py")
        if cli:
            main = next(node for node in tree.body
                        if isinstance(node, FUNCTIONS) and node.name == "main")
            assert ENVELOPE <= used(main)
        # The envelope's own helpers may call each other (_work_since reads
        # _work_counts); no other code may reach them.
        found += [f"{path}:{node.lineno} {sorted(used(node) & ENVELOPE)}" for node in tree.body
                  if not (cli and isinstance(node, FUNCTIONS) and node.name in ENVELOPE | {"main"})
                  and used(node) & ENVELOPE]
    assert found == []


#: graphs' component-encoding internals: the ``(k, legs, edges)`` format
#: stays inside graphs.
ENCODING_INTERNALS = {"_assemble", "_encodings", "_encode", "_component_encoding",
                      "_component_memo"}


def test_operators_reads_no_component_encoding():
    # The derivation grows its leg through graphs._grow_leg, so operators
    # never unpacks a component encoding itself.
    path = os.path.join(ROOT, "src", "overlap_lab", "operators.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    taken = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "graphs"
             for alias in node.names}
    taken |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "graphs"}
    assert "_grow_leg" in taken
    assert not taken & ENCODING_INTERNALS


def test_readme_names_only_defined_constants():
    # A bound the README names by its constant must exist, so that deleting
    # or renaming one shows here and not to a reader.
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        named = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", fh.read()))
    modules = [importlib.import_module(f"overlap_lab.{name[:-3]}")
               for name in os.listdir(os.path.join(ROOT, "src", "overlap_lab"))
               if name.endswith(".py") and name != "__init__.py"]
    undefined = {name for name in named if not any(hasattr(m, name) for m in modules)}
    assert undefined == set()


def memos() -> dict:
    """Every memo of the package by qualified name: each memoized function,
    under the module that defines it, and each module-level dict, save the
    work counters and ALL-CAPS tables such as lab._STENCILS."""
    found = {}
    for module in package_modules():
        for name, value in vars(module).items():
            if (hasattr(value, "cache_info") and value.__module__ == module.__name__
                    or isinstance(value, dict) and not name.startswith("__")
                    and not name.lstrip("_").isupper() and value is not overlap_lab.graphs.work):
                found[f"{module.__name__}.{name}"] = value
    return found


#: Every memo of the package and the traffic that keeps it, counted over one
#: in-process pass of each benchmark workload at seed 0, after the pass's
#: warm-up call.  Adding or dropping a memo is a change to this list.
MEMOS = {
    "overlap_lab.graphs.canonicalize":
        "63 of 87 calls hit on an algebra pass, 68 of 72 on oracle",
    "overlap_lab.graphs._component_memo":
        "18,374 of 21,513 component lookups hit on an algebra pass",
    "overlap_lab.operators._big_delta_term":
        "143 of 272 calls hit on an algebra pass; without it the pass took about 7% longer",
    "overlap_lab.operators._matrix_lists":
        "4,187 of 4,292 listings reused on an algebra pass",
    "overlap_lab.lab._compiled":
        "53 of 56 step programs reused by an oracle pass's beta sweep",
    "overlap_lab.lab._stencil_nodes":
        "21 of 24 stencils reused on an oracle pass",
    "overlap_lab.lab._hermgauss":
        "229 of 232 Gauss-Hermite rules reused on an oracle pass",
    "overlap_lab.streams._lcg_jumps":
        "22 of 24 jump tables reused on a crn_small pass",
    "overlap_lab.streams._ziggurat":
        "all 24 table reads of a crn_small pass hit",
    "overlap_lab.exprio._lab":
        "all 56 calls of an oracle pass hit: the lab is imported and its codec registered once",
    "overlap_lab.cli._build_parser":
        "32 of 33 commands of an algebra pass reuse the parser",
}


def test_every_memo_is_listed():
    assert sorted(memos()) == sorted(MEMOS)


def test_fresh_memos_empties_every_memo(request):
    # A memo the fixture left warm would let a test of a cold path read hits.
    graphs, operators, lab = overlap_lab.graphs, overlap_lab.operators, overlap_lab.lab
    p4 = overlap_lab.make_multigraph([(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    assert operators.theorem_verify(p4, 2).equal
    lab.identity_check(lab.sk_model(2, 0.5), p4, 1, method="quadrature", n_nodes=4)
    assert graphs._component_memo and operators._big_delta_term.cache_info().currsize
    assert lab._compiled.cache_info().currsize and lab._stencil_nodes.cache_info().currsize
    request.getfixturevalue("fresh_memos")
    warm = [name for name, memo in memos().items()
            if (memo.cache_info().currsize if callable(memo) else memo)]
    assert warm == []


#: The code in lab that may read a model's ``kind``: the model and its
#: constructors.
KIND_READERS = {"ModelInstance", "sk_model", "ea_model"}


def test_only_the_model_reads_its_kind():
    # Every estimator and rule works from the bond products alone, so a
    # model-specific branch anywhere else in the lab shows here.
    path = os.path.join(ROOT, "src", "overlap_lab", "lab.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = [f"{path}:{node.lineno} {top.name}" for top in tree.body
             if isinstance(top, (*FUNCTIONS, ast.ClassDef)) and top.name not in KIND_READERS
             for node in ast.walk(top) if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert found == []


def _builds_unchecked(node):
    """Whether ``node`` calls ``tuple.__new__``, or any ``__new__`` on
    ``Multigraph``: a monomial built past its constructor's checks."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"):
        return False
    receiver, first = node.func.value, node.args[0] if node.args else None
    return (isinstance(receiver, ast.Name) and receiver.id == "tuple"
            or isinstance(first, ast.Name) and first.id == "Multigraph")


def test_only_assemble_builds_a_monomial_unchecked():
    # Multigraph's constructor checks its input before it builds the tuple.
    # Component encodings are valid by construction, so the canonical
    # form's assembly alone skips those checks; any other unchecked build
    # could hand the algebra a malformed monomial unseen.
    found = set()
    for path, tree in _src_trees():
        module = os.path.splitext(os.path.basename(path))[0]
        scopes = [(top.name, top) for top in tree.body if isinstance(top, FUNCTIONS)]
        scopes += [(f"{cls.name}.{f.name}", f) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for f in cls.body if isinstance(f, FUNCTIONS)]
        found |= {f"{module}.{name}" for name, scope in scopes
                  for node in ast.walk(scope) if _builds_unchecked(node)}
        found |= {f"{module}:{node.lineno}" for node in tree.body
                  if not isinstance(node, (*FUNCTIONS, ast.ClassDef))
                  for sub in ast.walk(node) if _builds_unchecked(sub)}
    # the checked constructor itself, past its checks, and the assembly
    assert found == {"graphs.Multigraph.__new__", "graphs._assemble"}


@pytest.mark.parametrize("graph", ["{1,2}{2,3}{3,4}", "{1,2}{1,2}{3,4}"])
def test_every_theorem_term_passes_the_constructor_checks(graph, fresh_memos):
    # Every monomial the unchecked assembly builds, on both sides of the
    # identity at n = 3, is one the checked constructor accepts as it is.
    rep = overlap_lab.theorem_verify(overlap_lab.parse_monomial(graph), 3)
    assert rep.equal and rep.lhs and rep.rhs
    for g, _ in rep.lhs.items() + rep.rhs.items():
        assert overlap_lab.Multigraph(g.edges, g.legs) == g


#: numpy calls that may reduce through BLAS, whose split over threads
#: changes the order of a sum with the thread count.
BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def test_no_rule_reduces_through_blas():
    # A rule's ``stats`` sums a whole run's per-node column into a reported
    # mean, and ``lab._softmax_last`` sums each Gibbs measure to normalize
    # it and to decide whether it is refused.  Through BLAS their last bits,
    # the payload hash and the refusals would follow the thread count; the
    # runtime test of that passes wherever BLAS happens not to split the
    # sum, so the reductions' source is checked here.
    def name(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    checked, found = [], []
    for path, tree in _src_trees():
        scopes = [(f"{cls.name}.stats", f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for f in cls.body if isinstance(f, FUNCTIONS) and f.name == "stats"]
        scopes += [(f.name, f) for f in tree.body
                   if isinstance(f, FUNCTIONS) and f.name == "_softmax_last"]
        for label, scope in scopes:
            checked.append(label)
            found += [f"{path}:{node.lineno} {label}" for node in ast.walk(scope)
                      if isinstance(node, (ast.BinOp, ast.AugAssign))
                      and isinstance(node.op, ast.MatMult)
                      or isinstance(node, ast.Call) and name(node.func) in BLAS_CALLS]
    # the Monte Carlo and the quadrature rule, and the Gibbs normalizer
    assert {"_MonteCarlo.stats", "_GaussHermite.stats", "_softmax_last"} <= set(checked)
    assert found == []


def _run_demo(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_theorem_suite_demo_shows_a_refusal():
    # The demo ends on an input the work budget refuses at once; it exits
    # non-zero if that input ever passes.
    assert "  refused: " in _run_demo("02_theorem_suite.py")


def test_finite_size_identities_demo_holds():
    # The demo's quadrature rows run the folded stencils; every row it
    # prints must pass.
    out = _run_demo("03_finite_size_identities.py")
    assert "-> ok" in out and "VIOLATION" not in out
