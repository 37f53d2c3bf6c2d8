"""CLI harness: golden output, exit codes, JSON payload stability, config."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from math import comb, factorial

import pytest

from overlap_lab import (
    EMPTY,
    GraphPolynomial,
    double_factorial,
    edge,
    graphs,
    lab,
    make_multigraph,
    parse_polynomial,
)
from overlap_lab.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_command_lines():
    """The ``overlap`` command lines of the README's "Command line" block,
    ``\\`` continuations joined, as argument lists."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line\n\n```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    return [line[1:] for line in lines if line[:1] == ["overlap"]]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_lines_exit_zero(capsys, argv):
    assert run(capsys, *argv)[0] == EXIT_OK


class TestExpand:
    def test_golden_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--graph", "{1,2}", "--word", "C d d"
        )
        assert code == EXIT_OK
        assert out == "2{1,2}^2 - 8{1,2}{1,3} + 6{1,2}{3,4}\n"

    def test_expand_matches_classes_not_strings(self, capsys):
        code, out, _ = run(capsys, "expand", "--graph", "{1,2}", "--word", "C d d")
        expected = GraphPolynomial(
            [
                (edge(1, 2, 2), 2),
                (make_multigraph([(1, 2, 1), (2, 3, 1)]), -8),
                (make_multigraph([(1, 2, 1), (3, 4, 1)]), 6),
            ]
        )
        assert parse_polynomial(out.strip()) == expected

    def test_empty_word_echoes_canonically(self, capsys):
        code, out, _ = run(capsys, "expand", "--graph", "{5,9}")
        assert code == EXIT_OK and out == "{1,2}\n"

    def test_derivation_of_empty_is_zero(self, capsys):
        code, out, _ = run(capsys, "expand", "--graph", "1", "--word", "d")
        assert code == EXIT_OK and out == "0\n"

    def test_big_delta_token(self, capsys):
        _, via_d, _ = run(capsys, "expand", "--graph", "{1,2}", "--word", "D")
        _, via_cdd, _ = run(capsys, "expand", "--graph", "{1,2}", "--word", "C d d")
        assert via_d == via_cdd

    def test_bad_token_is_usage_error(self, capsys):
        code, _, err = run(capsys, "expand", "--graph", "{1,2}", "--word", "x")
        assert code == EXIT_USAGE and "token" in err

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "expand", "--graph", "{1,1}")
        assert code == EXIT_USAGE and "offset" in err


class TestSymbolicBudgets:
    def test_twenty_legs_on_two_vertices_exact(self, capsys):
        code, out, _ = run(capsys, "expand", "--graph", "{1}^10{2}^10", "--word", "C")
        assert code == EXIT_OK
        # j legs of each vertex pair across, the others pair at home.
        expected = GraphPolynomial(
            (edge(1, 2, j) if j else EMPTY,
             comb(10, j) ** 2 * factorial(j) * double_factorial(9 - j) ** 2)
            for j in range(0, 11, 2)
        )
        assert parse_polynomial(out.strip()) == expected
        assert expected.coefficient_sum() == double_factorial(19)

    @pytest.mark.parametrize("word, budget", [(" ".join(["d"] * 27), 29),
                                              ("D D D D d", 11)])
    def test_runaway_derivation_word_refused_at_once(self, capsys, monkeypatch,
                                                     fresh_memos, word, budget):
        # The word's expansion spends its units as it goes and stops at the
        # budget, here a few units; at the default budget the 27 d's are
        # refused after 4,500,000 units, about 6 s.
        monkeypatch.setattr(graphs, "WORK_BUDGET", budget)
        t0 = time.perf_counter()
        code, out, err = run(capsys, "expand", "--graph", "{1,2}", "--word", word)
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_USAGE and out == ""
        assert err == f"refused: the call needs more than WORK_BUDGET = {budget} work units\n"

    def test_wick_over_budget_refused_before_enumerating(self, capsys):
        # 20 legs on 10 vertices: about 1.4e6 pair-count matrices.
        graph = "".join(f"{{{v}}}^2" for v in range(1, 11))
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "expand", "--graph", graph, "--word", "C")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and err.startswith("refused:")
        assert "pair-count matrices" in err
        assert peak < 2**20, peak

    def test_huge_sparse_labels_cost_nothing_extra(self, capsys):
        # The canonical form ranks the labels before it groups components,
        # so a label of 10^12 sizes nothing.
        graph = "{1,1000000000000}{1000000000000,7}"
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            code, out, _ = run(capsys, "expand", "--graph", graph, "--word", "d")
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert out == "{1,2}{1,3}{1} + 2{1,2}{2,3}{1} - 3{2,3}{2,4}{1}\n"
        assert elapsed < 0.1, elapsed
        assert peak < 2**20, peak

    def test_wick_count_refused_without_counting(self, capsys):
        # 120 legs on 30 vertices: the matching bound alone is over budget.
        graph = "".join(f"{{{v}}}^4" for v in range(1, 31))
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "expand", "--graph", graph, "--word", "C")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and "more than 50000 pair-count matrices" in err
        assert peak < 2**20, peak

    def test_wick_count_over_step_budget_refused(self, capsys, monkeypatch, fresh_memos):
        # Counting the matrices of three 1000-leg vertices spends a unit a step.
        monkeypatch.setattr(graphs, "WORK_BUDGET", 1000)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "expand", "--graph", "{1}^1000{2}^1000{3}^1000",
                               "--word", "C")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and "WORK_BUDGET = 1000 work units" in err
        assert peak < 2**20, peak

    def test_canonical_search_over_budget_refused(self, capsys, monkeypatch, fresh_memos):
        # The component memo is keyed by normalized labels, so K5 seen
        # anywhere earlier would be a hit: search it in empty memos.  Its
        # canonical form, root refinement and the search's first child
        # refinement spend 10 + 25 + 21 units, and the grandchild's
        # refinement (17 more) is over the budget.
        monkeypatch.setattr(graphs, "WORK_BUDGET", 60)
        k5 = "".join(f"{{{i},{j}}}" for i in range(301, 306) for j in range(i + 1, 306))
        code, _, err = run(capsys, "expand", "--graph", k5)
        assert code == EXIT_USAGE and "WORK_BUDGET = 60 work units" in err

    @pytest.mark.parametrize("argv", [
        ("expand", "--word", "d d"),
        ("verify", "--n", "1"),
    ], ids=["expand-d-d", "verify-n1"])
    def test_wide_support_spends_in_proportion(self, capsys, monkeypatch, fresh_memos, argv):
        # A 60-edge path: each refinement round and each term visited spends
        # a unit per vertex, edge or leg it handles, so a unit stays cheap on
        # wide graphs and a tenth of the default budget is spent in well
        # under a second (about 0.1 s, at 0.25 us a unit).
        monkeypatch.setattr(graphs, "WORK_BUDGET", 400_000)
        path = "".join(f"{{{i},{i + 1}}}" for i in range(1, 61))
        t0 = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--graph", path, *argv[1:])
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_USAGE and out == ""
        assert err == "refused: the call needs more than WORK_BUDGET = 400000 work units\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--graph", "1", "--n", "1000000"),
        ("expand", "--graph", "{1}^300000", "--word", "C"),
    ], ids=["empty-monomial-n1e6", "leg-power-3e5"])
    def test_big_integer_work_refused_at_once(self, capsys, argv):
        # (2n-1)!! and the Wick coefficient of 300,000 legs spend units for
        # their multiplications and divisions before they are computed.
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("refused: the call needs more than WORK_BUDGET")


COUNTERS = ("component_encodings_computed", "component_encodings_reused",
            "component_searches", "search_leaves", "pair_count_matrices", "gc_collected")


class TestWorkCounters:
    @pytest.mark.parametrize("argv", [
        ("verify", "--graph", "{1,2}^5{2,3}^4{3,4}^3{1,4}^7", "--n", "1"),
        ("expand", "--graph", "{1,2}^6{2,3}^5{3,1}^4", "--word", "C d d"),
        ("counts", "--graph", "{1,2}^4{2,3}^6{3,4}^5{4,5}^2", "--n", "1"),
    ])
    def test_counters_in_timings_leave_payload_sha(self, capsys, argv):
        docs = [json.loads(run(capsys, *argv, "--json")[1]) for _ in range(2)]
        for doc in docs:
            assert not set(COUNTERS) & set(doc["payload"])
            assert all(doc["timings"][key] >= 0 for key in COUNTERS)
        cold, warm = (doc["timings"] for doc in docs)
        assert cold["component_encodings_computed"] > 0
        assert cold["pair_count_matrices"] > 0 and cold["search_leaves"] > 0
        assert warm["component_encodings_computed"] == warm["pair_count_matrices"] == 0
        assert docs[0]["payload_sha256"] == docs[1]["payload_sha256"]

    @pytest.mark.parametrize("argv", [
        ("expand", "--graph", "{1,2}", "--word", "D"),
        ("verify", "--graph", "{1,2}", "--n", "1"),
        ("counts", "--graph", "{1,2}", "--n", "1"),
        ("estimate", "--N", "2", "--graph", "{1,2}", "--samples", "16"),
        ("identity", "--N", "2", "--graph", "{1,2}", "--method", "quadrature",
         "--nodes", "8"),
        ("baseline", "--N", "2", "--samples", "16"),
    ], ids=lambda argv: argv[0])
    def test_every_command_reports_the_same_timings(self, capsys, fresh_memos, argv):
        docs = [json.loads(run(capsys, *argv, "--json")[1]) for _ in range(2)]
        for doc in docs:
            assert {"wall_s", "work_units", *COUNTERS} <= set(doc["timings"])
            assert doc["timings"]["wall_s"] > 0
            assert not set(COUNTERS) & set(doc["payload"])
        assert docs[0]["payload_sha256"] == docs[1]["payload_sha256"]
        # A cold identity counts the contractions of its big_delta too.
        contracts = argv[0] in ("expand", "verify", "counts", "identity")
        assert (docs[0]["timings"]["pair_count_matrices"] > 0) == contracts


def test_work_of_a_cold_verify_is_pinned(capsys, fresh_memos):
    # Deterministic work counts guard the operators' savings without timing
    # noise; the pair-count matrices are fixed by the mathematics.
    argv = ("verify", "--graph", "{1,2}{2,3}{3,4}", "--n", "3", "--json")
    timings = json.loads(run(capsys, *argv)[1])["timings"]
    assert timings["component_encodings_computed"] <= 997
    assert timings["component_searches"] <= 285
    assert timings["search_leaves"] <= 508
    assert timings["pair_count_matrices"] == 1906


def test_work_units_of_a_cold_verify_are_pinned(capsys, fresh_memos):
    # Memo hits spend nothing, so a cold run spends the same units each time.
    argv = ("verify", "--graph", "{1,2}{2,3}{3,4}", "--n", "3", "--json")
    assert json.loads(run(capsys, *argv)[1])["timings"]["work_units"] == 66059


def assert_graph_required(capsys, command):
    """``command`` without a graph, by flag or config, exits 2 with one
    ``error:`` line that names ``--graph``."""
    code, out, err = run(capsys, command)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "--graph" in err


class TestVerify:
    def test_equal_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "{1,2}", "--n", "2")
        assert code == EXIT_OK
        assert "equal: true" in out
        assert "raw terms: lhs=48 rhs=16" in out

    def test_any_graph_n0_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "{1,2}{1,3}{2,3}", "--n", "0")
        assert code == EXIT_OK

    def test_over_budget_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--graph", "{1,2}", "--n", "9")
        assert code == EXIT_USAGE and "refused" in err

    def test_missing_required_flag_exits_two(self, capsys):
        assert_graph_required(capsys, "verify")

    @pytest.mark.parametrize("command", ["expand", "counts", "estimate", "identity"])
    def test_other_commands_require_a_graph(self, capsys, command):
        assert_graph_required(capsys, command)


class TestVerifyPayloads:
    # Pinned payloads: the five criterion-2 graphs at n=3 and K4 at n=2.  Any
    # change to the canonical forms or to the polynomials the operators
    # build moves these hashes.
    @pytest.mark.parametrize("graph, n, sha", [
        ("{1,2}", 3, "cd76f02eb28b7b991810b67932df30e78175b98fd48e01e56a4aae84d2719999"),
        ("{1,2}^2", 3, "fbd64ef2f99c7fb308706ecd5264a99f9c82ef08883e03465e580233f053e345"),
        ("{1,2}{2,3}", 3,
         "4ffe8454c117370de3204069aa50ab0ad957e6326771133421ed732835a01e91"),
        ("{1,2}{3,4}", 3,
         "066b2399c89c3615b8fe79feceb35717ae96694911964428abbcac06a2dcc955"),
        ("{1,2}{1,3}{2,3}", 3,
         "6a0fdff7cef54448fe9493293fcdd96a085bab3f9b24e5129f28afe7a45afb3a"),
        ("{1,2}{1,3}{1,4}{2,3}{2,4}{3,4}", 2,
         "d59011eab274cad4e5a9ecd2dde1d5313c61a71903f5aedc174a1dea9203ffe4"),
    ], ids=["edge-n3", "double-edge-n3", "path-n3", "matching-n3", "triangle-n3", "K4-n2"])
    def test_pinned_payload(self, capsys, graph, n, sha):
        code, out, _ = run(capsys, "verify", "--graph", graph, "--n", str(n), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["payload_sha256"] == sha


class TestCounts:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "counts", "--graph", "{1,2}", "--n", "2")
        assert code == EXIT_OK
        assert "raw_lhs=48 raw_rhs=16" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "counts", "--graph", "{1,2}", "--n", "1", "--json")
        doc = json.loads(out)
        assert doc["payload"]["raw_rhs_terms"] == 4
        assert doc["payload"]["canonical_lhs_terms"] == 3

    def test_pinned_payload_sha(self, capsys):
        # the counts payload is the theorem payload without lhs, rhs, equal
        _, out, _ = run(capsys, "counts", "--graph", "{1,2}", "--n", "2", "--json")
        doc = json.loads(out)
        assert doc["type"] == "term_counts"
        canon = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canon.encode()).hexdigest() == doc["payload_sha256"] == (
            "2344f97fb91f6e86ec48d4df7207f5854f28f88140c85e894729f762ca9a23f3")


def int_digits():
    """Python's bound on the digits of an int converted to or from text;
    None where the interpreter has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


INT_DIGITS = int_digits()


def read_int(text):
    """``text`` as an integer, past Python's digit limit."""
    if INT_DIGITS:
        sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        if INT_DIGITS:
            sys.set_int_max_str_digits(INT_DIGITS)


class TestLongIntegers:
    # Exact results pass 4,300 digits well inside the work budget.  The
    # report is written whole; the input is still read under Python's limit
    # on the digits of an integer converted from text.
    def test_long_coefficient_is_written(self, capsys):
        code, out, _ = run(capsys, "expand", "--graph", "{1}^3000", "--word", "C")
        assert code == EXIT_OK
        assert read_int(out) == double_factorial(2999)
        assert int_digits() == INT_DIGITS

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_long_term_counts_are_written(self, capsys, json_flag):
        code, out, _ = run(capsys, "verify", "--graph", "1", "--n", "1300", *json_flag)
        assert code == EXIT_OK
        raw = 4**1300 * double_factorial(2599)
        if json_flag:
            assert read_int(out.split('"raw_lhs_terms": ')[1].split(",")[0]) == raw
        else:
            assert "equal: true" in out
            assert read_int(out.split("raw terms: lhs=")[1].split()[0]) == raw
        assert int_digits() == INT_DIGITS

    @pytest.mark.skipif(not INT_DIGITS, reason="this Python has no int digit limit")
    @pytest.mark.parametrize("source", ["graph-flag", "config-n"])
    def test_long_input_integer_still_refused(self, capsys, tmp_path, source):
        digits = "9" * 4400
        if source == "graph-flag":
            argv = ("expand", "--graph", "{1}^" + digits)
        else:
            config = tmp_path / "config.json"
            config.write_text('{"n": ' + digits + "}")
            argv = ("verify", "--graph", "1", "--config", str(config))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert "4300 digits" in err
        assert int_digits() == INT_DIGITS


class TestEstimate:
    def test_coefficient_outside_the_float_range_exits_two(self, capsys):
        code, out, err = run(capsys, "estimate", "--graph", "1" + "0" * 400 + "{1,2}",
                             "--samples", "10")
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: the coefficient of Multigraph(edges=[(1, 2, 1)], legs=[]), "
                       "of 1329 bits, is outside the float range\n")

    def test_negative_seed_exits_two(self, capsys):
        code, out, err = run(capsys, "estimate", "--graph", "{1,2}", "--samples", "10",
                             "--seed", "-1")
        assert code == EXIT_USAGE and out == ""
        assert "seed must be a nonnegative integer" in err

    def test_beta_zero_mean(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--model", "sk", "--N", "3", "--beta", "0",
            "--graph", "{1,2}", "--samples", "50", "--seed", "1",
        )
        assert code == EXIT_OK
        assert "mean=0.333333333333333" in out

    def test_json_rerun_payload_identical(self, capsys, tmp_path):
        argv = [
            "estimate", "--model", "sk", "--N", "2", "--beta", "0.5",
            "--graph", "{1,2}", "--samples", "200", "--seed", "5", "--json",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        doc1, doc2 = json.loads(out1), json.loads(out2)
        assert doc1["payload"] == doc2["payload"]
        assert doc1["payload_sha256"] == doc2["payload_sha256"]

    def test_quadrature_method(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--model", "sk", "--N", "2", "--beta", "0",
            "--graph", "{1,2}", "--method", "quadrature", "--json",
        )
        doc = json.loads(out)
        assert abs(doc["payload"]["mean"] - 0.5) < 1e-12
        assert doc["payload"]["method"] == "quadrature"

    def test_out_file_and_curve(self, capsys, tmp_path):
        out_path = tmp_path / "est.json"
        csv_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "estimate", "--model", "sk", "--N", "2", "--beta", "0.5",
            "--graph", "{1,2}", "--samples", "100", "--seed", "2", "--json",
            "--out", str(out_path), "--lambda-grid", "0.1,0.2",
            "--curve-out", str(csv_path),
        )
        assert code == EXIT_OK
        assert json.loads(out_path.read_text())["type"] == "quenched_estimate"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "lambda,mean,stderr"
        assert len(lines) == 6  # +-0.2, +-0.1, 0 and the header

    def test_ea_model(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--model", "ea", "--lattice", "4", "--beta", "0",
            "--graph", "{1,2}", "--samples", "20", "--seed", "3",
        )
        assert code == EXIT_OK and "mean=0.0 " in out

    def test_overflowing_exponent_leaves_one_stderr_line(self):
        # beta * energy overflows; numpy's warnings must not reach stderr.
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "overlap_lab.cli", "estimate", "--model", "sk",
             "--N", "3", "--graph", "{1,2}", "--samples", "10", "--beta", "1e308"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert proc.stderr == "error: Gibbs weights are not finite or do not sum to one\n"

    def test_overflowing_spread_exits_two(self):
        # A coefficient of 10^300 squares past the float range in the
        # spread; an infinite stderr would pass any 3-sigma gate.
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "overlap_lab.cli", "estimate", "--model", "sk",
             "--N", "3", "--graph", "1" + "0" * 300 + "{1,2}", "--samples", "10"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert proc.stderr == ("error: the Monte Carlo mean or spread of a sampled "
                               "value overflows the float range\n")

    def test_invalid_model_size_exits_two(self, capsys):
        code, _, err = run(
            capsys, "estimate", "--model", "sk", "--N", "30", "--beta", "0.5",
            "--graph", "{1,2}",
        )
        assert code == EXIT_USAGE and err.startswith("refused:")


class TestIdentityCommand:
    def test_quadrature_passes(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--model", "sk", "--N", "2", "--beta", "0.5",
            "--graph", "{1,2}", "--n", "1", "--method", "quadrature",
        )
        assert code == EXIT_OK
        assert "passed: true" in out

    def test_json_report_schema(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--model", "sk", "--N", "2", "--beta", "0.5",
            "--graph", "{1,2}", "--n", "1", "--method", "quadrature", "--json",
        )
        doc = json.loads(out)
        assert doc["type"] == "identity_report"
        assert doc["payload"]["model"] == {"kind": "sk", "beta": 0.5, "n_spins": 2}
        assert len(doc["payload"]["rows"]) == 2

    def test_budget_exits_two(self, capsys, monkeypatch):
        # about 2^26 work units a sample on 2,048 configurations: 40,000
        # samples are over LAB_WORK_BUDGET, and refused before any draw
        from overlap_lab import streams

        monkeypatch.setattr(streams._MonteCarlo, "draws",
                            lambda *args: pytest.fail("drew nodes"))
        t0 = time.perf_counter()
        code, _, err = run(
            capsys, "identity", "--model", "ea", "--lattice", "3x4", "--beta", "0.5",
            "--graph", "{1,2}", "--n", "1", "--samples", "40000",
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_USAGE and "refused" in err and "work units" in err

    @pytest.mark.parametrize("argv, tol, lemma", [
        (["--method", "quadrature", "--nodes", "8", "--tol", "1e-3", "--lemma-lambda", "0.3"],
         1e-3, 0.3),
        (["--samples", "40", "--tol", "1e-3", "--lemma-lambda", "-0.0"], None, 0.0),
        (["--method", "quadrature", "--nodes", "8", "--n", "2", "--lemma-lambda", "0.3",
          "--tol", "1e-2"], 1e-2, None),
    ], ids=["quadrature", "mc", "n2"])
    def test_payload_names_its_inputs_and_replays(self, capsys, argv, tol, lemma):
        # tol is echoed where the rows gate at it, the lemma point where its
        # row exists; the argv rebuilt from the payload gives the same hash.
        code, out, _ = run(capsys, "identity", "--N", "2", "--graph", "{1,2}", *argv, "--json")
        doc = json.loads(out)
        p = doc["payload"]
        assert code == EXIT_OK and (p["tol"], p["lemma_lambda"]) == (tol, lemma)
        replay = ["identity", "--model", p["model"]["kind"], "--N", str(p["model"]["n_spins"]),
                  "--beta", repr(p["model"]["beta"]), "--graph", p["graph"], "--n", str(p["n"]),
                  "--method", p["method"], "--seed", str(p["seed"]),
                  "--nodes" if p["method"] == "quadrature" else "--samples", str(p["samples"]),
                  "--lambda-grid=" + ",".join(map(repr, p["lambda_grid"]))]
        replay += [] if p["tol"] is None else ["--tol", repr(p["tol"])]
        replay += [] if p["lemma_lambda"] is None else ["--lemma-lambda", repr(p["lemma_lambda"])]
        code, out, _ = run(capsys, *replay, "--json")
        assert code == EXIT_OK and json.loads(out)["payload_sha256"] == doc["payload_sha256"]

    @pytest.mark.parametrize("method", ["mc", "quadrature"])
    @pytest.mark.parametrize("n", ["3", "4"])
    def test_unsupported_order_exits_two(self, capsys, monkeypatch, method, n):
        # No stencil beyond order 4 = 2n: refused before any rule is built.
        monkeypatch.setattr(lab, "_rule", None)
        code, out, err = run(
            capsys, "identity", "--model", "sk", "--N", "2", "--beta", "0.5",
            "--graph", "{1,2}", "--n", n, "--method", method,
        )
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: n={n} is not supported: the identity is checked at orders n = 1 and 2\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_dishonest_tolerance_exits_two(self, capsys, tol):
        # nan and -1 would fail every row, inf would pass every one.
        code, out, err = run(
            capsys, "identity", "--model", "sk", "--N", "2", "--method", "quadrature",
            "--nodes", "8", "--graph", "{1,2}", "--tol", tol,
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: tol must be finite and >= 0")

    def test_violation_beyond_tolerance_exits_one(self, capsys):
        # an absurd tolerance turns the tiny stencil residual into a failure
        code, out, _ = run(
            capsys, "identity", "--model", "sk", "--N", "2", "--beta", "0.5",
            "--graph", "{1,2}", "--n", "1", "--method", "quadrature",
            "--tol", "1e-30",
        )
        assert code == EXIT_VIOLATION
        assert "passed: false" in out


class TestBaselineCommand:
    def test_quadrature(self, capsys):
        code, out, _ = run(
            capsys, "baseline", "--model", "sk", "--N", "2", "--beta", "0.5",
            "--method", "quadrature",
        )
        assert code == EXIT_OK and "passed: true" in out

    def test_mc_small(self, capsys):
        code, out, _ = run(
            capsys, "baseline", "--model", "sk", "--N", "3", "--beta", "0.5",
            "--samples", "2000", "--seed", "4",
        )
        assert code == EXIT_OK


class TestConfigPrecedence:
    def test_config_file_fills_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        code, out, _ = run(
            capsys, "verify", "--graph", "{1,2}", "--config", str(cfg)
        )
        assert code == EXIT_OK and "n: 2" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        code, out, _ = run(
            capsys, "verify", "--graph", "{1,2}", "--n", "1", "--config", str(cfg)
        )
        assert "n: 1" in out

    def test_workers_flag_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "baseline", "--model", "sk", "--N", "3", "--samples", "10",
            "--workers", "2",
        )
        assert code == EXIT_USAGE and "--workers" in err

    def test_config_graph_takes_effect(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "{1,2}", "word": "C d d"}))
        code, out, _ = run(capsys, "expand", "--config", str(cfg))
        assert code == EXIT_OK
        assert out == "2{1,2}^2 - 8{1,2}{1,3} + 6{1,2}{3,4}\n"

    def test_graph_flag_overrides_config_graph(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "{1,2}{2,3}", "word": "C d d"}))
        code, out, _ = run(capsys, "expand", "--graph", "{1,2}", "--config", str(cfg))
        assert code == EXIT_OK
        assert out == "2{1,2}^2 - 8{1,2}{1,3} + 6{1,2}{3,4}\n"

    @pytest.mark.parametrize("key", ["sampels", "workers"])
    def test_unknown_config_key_refused(self, capsys, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 50}))
        code, _, err = run(
            capsys, "identity", "--graph", "{1,2}", "--config", str(cfg)
        )
        assert code == EXIT_USAGE and repr(key) in err

    def test_config_that_is_no_json_object_refused(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([["n", 2]]))
        code, out, err = run(capsys, "verify", "--graph", "{1,2}", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert "config file must hold a JSON object" in err


class TestConfigValues:
    """A config value is converted and checked like the flag it names."""

    def run_config(self, capsys, tmp_path, cfg, *argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run(capsys, *argv, "--config", str(path))

    def test_string_n_like_flag(self, capsys, tmp_path):
        via_cfg = self.run_config(capsys, tmp_path, {"n": "2"}, "verify", "--graph", "{1,2}")
        via_flags = run(capsys, "verify", "--graph", "{1,2}", "--n", "2")
        assert via_cfg[0] == EXIT_OK and via_cfg[1] == via_flags[1]

    def test_json_switch(self, capsys, tmp_path):
        code, out, _ = self.run_config(capsys, tmp_path, {"json": True},
                                       "verify", "--graph", "{1,2}")
        assert code == EXIT_OK and json.loads(out)["type"] == "theorem_report"
        code, out, _ = self.run_config(capsys, tmp_path, {"json": False},
                                       "verify", "--graph", "{1,2}")
        assert code == EXIT_OK and out.startswith("graph: {1,2}")

    @pytest.mark.parametrize("cfg, flags", [
        ({"N": "2", "beta": "0.25"}, ["--N", "2", "--beta", "0.25"]),
        ({"model": "ea", "lattice": [2, 2]}, ["--model", "ea", "--lattice", "2x2"]),
        ({"model": "ea", "lattice": "2x2", "beta": 0.7}, ["--model", "ea", "--lattice", "2x2",
                                                         "--beta", "0.7"]),
    ])
    def test_estimate_like_flags(self, capsys, tmp_path, cfg, flags):
        argv = ["estimate", "--graph", "{1,2}", "--samples", "40", "--seed", "3", "--json"]
        via_cfg = self.run_config(capsys, tmp_path, cfg, *argv)
        via_flags = run(capsys, *argv, *flags)
        assert via_cfg[0] == EXIT_OK
        assert json.loads(via_cfg[1])["payload"] == json.loads(via_flags[1])["payload"]

    @pytest.mark.parametrize("grid", [[0.1, 0.05], "0.1,0.05"])
    def test_lambda_grid_list_like_flag(self, capsys, tmp_path, grid):
        argv = ["identity", "--N", "2", "--graph", "{1,2}", "--method", "quadrature",
                "--nodes", "16", "--json"]
        via_cfg = self.run_config(capsys, tmp_path, {"lambda_grid": grid}, *argv)
        via_flags = run(capsys, *argv, "--lambda-grid", "0.1,0.05")
        doc = json.loads(via_cfg[1])
        assert doc["payload"]["lambda_grid"] == [-0.1, -0.05, 0.05, 0.1]
        assert doc["payload"] == json.loads(via_flags[1])["payload"]

    def test_flags_override_checked_config(self, capsys, tmp_path):
        code, out, _ = self.run_config(capsys, tmp_path, {"n": "2"},
                                       "verify", "--graph", "{1,2}", "--n", "1")
        assert code == EXIT_OK and "n: 1" in out

    @pytest.mark.parametrize("cfg, named", [
        ({"model": "foo"}, "--model"),
        ({"method": "exact"}, "--method"),
        ({"json": "no"}, "'json'"),
        ({"json": 1}, "'json'"),
        ({"n": "zz"}, "--n"),
        ({"n": True}, "'n'"),
        ({"N": 2.5}, "--N"),
        ({"beta": "warm"}, "--beta"),
        ({"samples": [10]}, "'samples'"),
        ({"seed": {"a": 1}}, "'seed'"),
        ({"lattice": "ax2"}, "--lattice"),
        ({"lambda_grid": "0.1,a"}, "--lambda-grid"),
        ({"lambda_grid": [0.1, "a"]}, "--lambda-grid"),
    ])
    def test_bad_value_exits_two_naming_key(self, capsys, tmp_path, cfg, named):
        code, out, err = self.run_config(capsys, tmp_path, cfg, "identity", "--graph",
                                         "{1,2}", "--samples", "10")
        assert code == EXIT_USAGE and out == ""
        assert named in err

    @pytest.mark.parametrize("flag, value", [("--lattice", "ax2"),
                                             ("--lambda-grid", "0.1,a")])
    def test_malformed_grid_flag_exits_two_naming_it(self, capsys, flag, value):
        code, out, err = run(capsys, "identity", "--graph", "{1,2}", "--samples", "10",
                             flag, value)
        assert code == EXIT_USAGE and out == ""
        assert f"argument {flag}" in err


class TestLambdaGridDefault:
    """Without --lambda-grid, both commands use DeformationConfig's grid."""

    IDENTITY = ["identity", "--N", "2", "--graph", "{1,2}", "--method", "quadrature",
                "--nodes", "16", "--json"]

    def test_identity_default_is_the_config_grid(self, capsys, tmp_path):
        default = json.loads(run(capsys, *self.IDENTITY)[1])
        spelled = json.loads(run(capsys, *self.IDENTITY, "--lambda-grid="
                                 + ",".join(map(repr, lab.DeformationConfig().lambda_grid)))[1])
        assert default["payload_sha256"] == spelled["payload_sha256"]
        assert default["payload"]["lambda_grid"] == [-0.2, -0.1, -0.05, 0.05, 0.1, 0.2]
        mirrored = json.loads(run(capsys, *self.IDENTITY, "--lambda-grid", "0.05,0.1,0.2")[1])
        assert mirrored["payload_sha256"] == default["payload_sha256"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda_grid": None}))
        via_null = json.loads(run(capsys, *self.IDENTITY, "--config", str(path))[1])
        assert via_null["payload_sha256"] == default["payload_sha256"]

    def test_curve_default_is_the_config_grid(self, capsys, tmp_path):
        argv = ["estimate", "--N", "2", "--graph", "{1,2}", "--samples", "40", "--seed", "3"]
        curves = []
        for k, grid in enumerate([[], ["--lambda-grid", "0.05,0.1,0.2"]]):
            path = tmp_path / f"curve{k}.csv"
            assert run(capsys, *argv, "--curve-out", str(path), *grid)[0] == EXIT_OK
            curves.append(path.read_text())
        assert curves[0] == curves[1]
        assert len(curves[0].splitlines()) == 8  # the header, 0 and +-0.05, 0.1, 0.2


class TestNonFiniteDeformation:
    @pytest.mark.parametrize("argv, named", [
        (["estimate", "--graph", "{1,2}", "--lam", "nan"], "lam must be finite, got nan"),
        (["identity", "--graph", "{1,2}", "--lemma-lambda", "nan"],
         "lemma_lambda must be finite, got nan"),
        (["identity", "--graph", "{1,2}", "--lambda-grid", "inf"],
         "lambda_grid must be finite, got inf"),
        (["estimate", "--N", "2", "--graph", "{1,2}", "--method", "quadrature",
          "--lam", "inf"], "lam must be finite, got inf"),
    ])
    def test_refused_before_any_draw(self, capsys, monkeypatch, argv, named):
        monkeypatch.setattr(lab, "_evaluate", lambda *args: pytest.fail("drew nodes"))
        code, out, err = run(capsys, *argv, "--samples", "10")
        assert code == EXIT_USAGE and out == ""
        assert named in err


_FINE_GRID = "0.0125,0.025,0.05,0.1,0.2"
_ORACLE = ("--model", "sk", "--N", "2", "--beta", "0.8", "--method", "quadrature")
#: Its doubled grid sums 16,384 nodes, a length at which a BLAS dot is split
#: over threads.
_ESTIMATE_64 = ["estimate", *_ORACLE, "--nodes", "64", "--graph",
                "2{1,2}^2 - 8{1,2}{1,3} + 6{1,2}{3,4}", "--lam", "0.3"]


class TestGibbsPayloads:
    # Pinned payloads on every path that builds Gibbs measures: the SK N=2
    # quadrature identities at n=1 and n=2 on the fine grid, its baseline and
    # estimate, and Monte Carlo identities on SK N=5 and the EA ring of 6
    # (16 and 32 configurations modulo the global spin flip).
    @pytest.mark.parametrize("argv, sha", [
        (["identity", *_ORACLE, "--nodes", "64", "--graph", "{1,2}", "--n", "1",
          "--lambda-grid", _FINE_GRID, "--tol", "1e-6"],
         "9f14afc403a3224eef29f952564b3d0018c1abb5c76dbf1aec7ad1c63876b196"),
        (["identity", *_ORACLE, "--nodes", "64", "--graph", "{1,2}", "--n", "2",
          "--lambda-grid", _FINE_GRID, "--tol", "1e-5"],
         "14bdf6171a3095cb69405230c9913e62cbed9ab5df77ef9884ee316dbe1f87df"),
        (["baseline", *_ORACLE, "--nodes", "64"],
         "c17fe6d8a9d5c867b4a3953ea58c025a80c72d48e881040ccd5987eea92db3f8"),
        (_ESTIMATE_64,
         "cfcba1fe34c3cd9ffdf87e3de45a31da4fd58612680108f52b0a81e63e9f5667"),
        (["identity", "--model", "sk", "--N", "5", "--beta", "0.5", "--samples", "300",
          "--seed", "2026", "--graph", "{1,2}", "--n", "1"],
         "e5f22db67ea4dbf94eb8abbbff307ac087cfa2933029314c4b957565fe2fb351"),
        (["identity", "--model", "ea", "--lattice", "6", "--beta", "0.5", "--samples", "300",
          "--seed", "2027", "--graph", "{1,2}", "--n", "1"],
         "8454bd1772c2aed75334da535d4b843a39d6eb94cbab8fe54c0967a3c849fe01"),
    ], ids=["identity-quadrature-n1", "identity-quadrature-n2", "baseline-quadrature",
            "estimate-quadrature", "identity-mc-sk5", "identity-mc-ea6"])
    def test_pinned_payload(self, capsys, argv, sha):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["payload_sha256"] == sha


_QUAD16 = ("--N", "2", "--method", "quadrature", "--nodes", "16")
_IDENTITY16 = ["identity", "--graph", "{1,2}", *_QUAD16]
_ESTIMATE16 = ["estimate", *_QUAD16, "--graph"]


class TestOnePayloadPerComputation:
    """A payload is a function of what was computed: two spellings of one
    computation, or settings it ignores, give one hash."""

    @pytest.mark.parametrize("argv_a, argv_b", [
        pytest.param([*_IDENTITY16, "--lambda-grid", "0.05,0.1,0.2"],
                     [*_IDENTITY16, "--lambda-grid", "0.2,0.1,0.05"], id="grid-order"),
        pytest.param([*_IDENTITY16, "--lambda-grid", "0.05,0.1,0.2"], _IDENTITY16,
                     id="grid-default"),
        pytest.param([*_ESTIMATE16, "{1,2}"], [*_ESTIMATE16, "{2,1}"], id="graph-order"),
        pytest.param([*_ESTIMATE16, "{1,2}"], [*_ESTIMATE16, " {1,2} "], id="graph-spaces"),
        pytest.param([*_ESTIMATE16, "{1,2}"], [*_ESTIMATE16, "{3,5}"], id="graph-labels"),
        pytest.param(["expand", "--graph", "{1,2}", "--word", "D"],
                     ["expand", "--graph", "{1,2}", "--word", "C  d d"], id="word"),
        pytest.param(["expand", "--graph", "{1,2}", "--word", "D"],
                     ["expand", "--graph", "{2,5}", "--word", "D"], id="expand-labels"),
        pytest.param([*_IDENTITY16, "--seed", "0"], [*_IDENTITY16, "--seed", "5"],
                     id="identity-grid-seed"),
        pytest.param(["baseline", *_QUAD16, "--seed", "0"], ["baseline", *_QUAD16, "--seed", "5"],
                     id="baseline-grid-seed"),
        pytest.param(["estimate", "--graph", "{1,2}", "--samples", "40", "--lam", "0.0"],
                     ["estimate", "--graph", "{1,2}", "--samples", "40", "--lam", "-0.0"],
                     id="negative-zero-lam"),
        pytest.param(["identity", "--graph", "{1,2}", "--samples", "40", "--lemma-lambda", "0.0"],
                     ["identity", "--graph", "{1,2}", "--samples", "40", "--lemma-lambda", "-0.0"],
                     id="negative-zero-lemma-lambda"),
        pytest.param(["estimate", "--graph", "{1,2}", "--samples", "40", "--beta", "0"],
                     ["estimate", "--graph", "{1,2}", "--samples", "40", "--beta=-0.0"],
                     id="negative-zero-beta"),
        pytest.param(["estimate", "--model", "ea", "--lattice", "4", "--graph", "{1,2}",
                      "--samples", "40"],
                     ["estimate", "--model", "ea", "--lattice", "4x1", "--graph", "{1,2}",
                      "--samples", "40"], id="unit-lattice-side"),
    ])
    def test_one_hash(self, capsys, argv_a, argv_b):
        docs = []
        for argv in (argv_a, argv_b):
            code, out, _ = run(capsys, *argv, "--json")
            assert code == EXIT_OK
            docs.append(json.loads(out))
        assert docs[0]["payload_sha256"] == docs[1]["payload_sha256"]

    def test_one_hash_at_every_blas_thread_count(self):
        shas = set()
        for threads in ("1", "2", "4"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1",
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "overlap_lab.cli", *_ESTIMATE_64,
                                   "--json"], env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == EXIT_OK, proc.stderr
            shas.add(json.loads(proc.stdout)["payload_sha256"])
        assert len(shas) == 1


class TestMonteCarloSamples:
    # Pinned payloads: seeds of one to three 32-bit words, an EA baseline and
    # an SK N=5 estimate.  Any change to the sample streams, or to the
    # arithmetic on them, moves these hashes.
    @pytest.mark.parametrize("argv, sha", [
        (["identity", "--model", "sk", "--N", "3", "--beta", "0.5", "--samples", "300",
          "--seed", "4294967296", "--graph", "{1,2}", "--n", "1"],
         "b9f098d79362a48be7415abc48bd88b11c5ebb64fb6d634a29827d3e3ddf42aa"),
        (["baseline", "--model", "ea", "--lattice", "4", "--beta", "0.5",
          "--samples", "300", "--seed", "7"],
         "c340d4af56de7c14356da318e9b130390c5ffcd33aa258682dd22b2b9634609c"),
        (["estimate", "--model", "sk", "--N", "5", "--beta", "0.5", "--samples", "300",
          "--seed", "1180591620717411303427", "--graph", "{1,2}", "--lam", "0.3"],
         "2de63a1d0332e2a0e14c9cc151139a2602fb99300b5401bdaa3a21c09be7ee94"),
    ], ids=["identity-two-word-seed", "baseline-one-word-seed", "estimate-three-word-seed"])
    def test_pinned_payload(self, capsys, argv, sha):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["payload_sha256"] == sha

    def test_over_two_to_the_32_refused_before_any_draw(self, capsys, monkeypatch):
        monkeypatch.setattr(lab, "_evaluate", lambda *args: pytest.fail("drew nodes"))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "estimate", "--graph", "{1,2}",
                                 "--samples", "4294967297")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("refused:") and "bound of 4294967296" in err
        assert peak < 2**20, peak

    @pytest.mark.parametrize("argv", [
        ["--model", "ea", "--lattice", "2x5", "--samples", "4000000000"],
        ["--model", "sk", "--N", "2", "--samples", "4000000000"],
        ["--model", "sk", "--N", "30"],
        ["--model", "ea", "--lattice", "4x4"],
        ["--model", "ea", "--lattice", "100000x100000"],
    ])
    def test_over_lab_budget_refused_before_any_draw(self, capsys, monkeypatch, argv):
        from overlap_lab import streams

        monkeypatch.setattr(streams._MonteCarlo, "draws",
                            lambda *args: pytest.fail("drew nodes"))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "estimate", "--graph", "{1,2}", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("refused:") and err.count("\n") == 1
        assert "work units" in err and "bytes" in err

    @pytest.mark.parametrize("command", [
        ["identity", "--graph", "{1,2}"],
        ["baseline"],
        ["estimate", "--graph", "{1,2}"],
    ])
    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_fewer_than_two_samples_refused(self, capsys, monkeypatch, command, samples):
        # One sample has no spread, so a standard error of 0 would gate the
        # identity rows at the roundoff floor.
        monkeypatch.setattr(lab, "_evaluate", lambda *args: pytest.fail("drew nodes"))
        code, out, err = run(capsys, *command, "--samples", samples)
        assert code == EXIT_USAGE and out == ""
        assert f"need at least two disorder samples for a standard error, got {samples}" in err


class TestQuadratureNodes:
    def test_zero_nodes_refused(self, capsys):
        code, _, err = run(
            capsys, "estimate", "--model", "sk", "--N", "2", "--graph", "{1,2}",
            "--method", "quadrature", "--nodes", "0",
        )
        assert code == EXIT_USAGE and "at least 1 node" in err

    # 129 nodes pass on their own, but the truncation estimate doubles them
    @pytest.mark.parametrize("nodes", ["8192", "129"])
    def test_oversized_grid_refused_before_allocating(self, capsys, nodes):
        tracemalloc.start()
        try:
            code, _, err = run(
                capsys, "estimate", "--model", "sk", "--N", "2", "--graph", "{1,2}",
                "--method", "quadrature", "--nodes", nodes,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and err.startswith("refused:")
        assert peak < 2**20, peak

    def test_oversized_grid_refused_before_any_rule(self, capsys, monkeypatch):
        def fail(*args):
            pytest.fail("built a Gauss-Hermite rule")

        monkeypatch.setattr("numpy.polynomial.hermite.hermgauss", fail)
        monkeypatch.setattr(lab, "_hermgauss", fail)
        code, out, err = run(
            capsys, "estimate", "--model", "sk", "--N", "2", "--graph", "{1,2}",
            "--method", "quadrature", "--nodes", "8192",
        )
        assert code == EXIT_USAGE and out == "" and err.startswith("refused:")
