"""Every `overlap` command exits 0, 1 or 2, and exits 1 only with a report
whose check failed.

Commands run in this process on small argument lists drawn by hypothesis,
valid and invalid alike.  An uncaught exception, which the installed command
would print as a traceback, fails the test as it propagates out of ``main``;
a warning, which it would print to stderr above its one ``error:`` or
``refused:`` line, fails it too.
"""

import contextlib
import io
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from overlap_lab.cli import EXIT_VIOLATION, main

GRAPHS = ("{1,2}", "{1,2}^2", "{1,2}{2,3}", "{1,2}{1,3}{2,3}", "{1,2}{3,4}", "1",
          "{1}{2}", "{1,2}{3}", "{1,1}", "{1,2")
FAILED = ('"passed": false', '"equal": false', "passed: false", "equal: false")


@st.composite
def symbolic_argv(draw):
    command = draw(st.sampled_from(["expand", "verify", "counts"]))
    argv = [command, "--graph", draw(st.sampled_from(GRAPHS))]
    if command == "expand":
        tokens = st.lists(st.sampled_from(["d", "C", "D", "x"]), max_size=3)
        argv += ["--word", " ".join(draw(tokens))]
    else:
        argv += ["--n", draw(st.sampled_from(["-1", "0", "1", "2", "3", "x"]))]
    return argv


def mostly(usual, *others):
    """Draw ``usual`` about as often as all of ``others`` together."""
    return st.sampled_from([usual] * max(1, len(others)) + list(others))


@st.composite
def numerical_argv(draw):
    command = draw(st.sampled_from(["identity", "baseline", "estimate"]))
    model = draw(mostly(["--model", "sk", "--N", "2"], ["--model", "sk", "--N", "3"],
                        ["--model", "ea", "--lattice", "4"],
                        ["--model", "ea", "--lattice", "2x2"],
                        ["--model", "sk", "--N", "1"], ["--model", "ea", "--lattice", "0"],
                        ["--model", "sk", "--N", "30"], ["--model", "ea", "--lattice", "4x4"],
                        ["--model", "ea", "--lattice", "100000x100000"]))
    argv = [command, *model,
            "--beta", draw(mostly("0.5", "0", "2", "-1", "nan", "1e308")),
            "--method", draw(st.sampled_from(["mc", "quadrature"])),
            "--nodes", draw(mostly("8", "1", "2", "0")),
            "--samples", draw(mostly("16", "2", "-1", "1", "4000000000")),
            "--seed", str(draw(st.integers(0, 3)))]
    if command != "baseline":
        argv += ["--graph", draw(mostly("{1,2}", "{1,2}^2", "{1,2}{2,3}", "{1,2}{3,4}", "1",
                                        "{1}{2}", "{1,2"))]
    if command == "identity":
        argv += ["--n", draw(mostly("1", "2", "0", "3")),
                 "--tol", draw(mostly("1e-6", "0", "1e-30", "nan", "inf", "-1")),
                 "--lemma-lambda", draw(mostly("0.2", "0", "1e17", "nan"))]
        grid = draw(mostly(None, "0.2,0.1", "0.1", "0.2,0.15", "1e-320,5e-321",
                           "1e200,5e199", "0,0.1"))
        argv += [] if grid is None else ["--lambda-grid", grid]
    if command == "estimate":
        argv += ["--lam", draw(mostly("0.3", "0", "nan"))]
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(symbolic_argv(), numerical_argv()), st.booleans())
def test_exit_codes_are_honest(argv, as_json):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + ["--json"] * as_json)
    assert code in (0, 1, 2), (argv, code)
    if code == EXIT_VIOLATION:
        assert any(flag in out.getvalue() for flag in FAILED), argv
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == [], argv
