"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Stochastic criteria use pinned seeds, so reruns are deterministic.
"""

import time
from itertools import combinations_with_replacement

import pytest

from conftest import count_matchings
from overlap_lab import (
    EMPTY,
    DeformationConfig,
    GraphPolynomial,
    big_delta,
    canonicalize,
    compose,
    delta_formula_direct,
    delta_v_minus,
    delta_v_plus,
    deformed_expectation,
    ea_model,
    edge,
    enumerate_pairings,
    fresh_vertex,
    identity_check,
    leg,
    make_multigraph,
    parse_polynomial,
    quadrature_expectation,
    quenched_expectation,
    sk_model,
    theorem_verify,
    wick_baseline_check,
)
from overlap_lab.cli import EXIT_OK, main

G12 = edge(1, 2)
FINE_GRID = DeformationConfig(
    lambda_grid=tuple(s * m for m in (0.0125, 0.025, 0.05, 0.1, 0.2) for s in (1, -1))
)


def report(line):
    print(f"PASS {line}", flush=True)


def test_criterion_01_worked_example_via_cli(capsys):
    t0 = time.perf_counter()
    code = main(["expand", "--graph", "{1,2}", "--word", "C d d"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    expected = GraphPolynomial(
        [
            (edge(1, 2, 2), 2),
            (make_multigraph([(1, 2, 1), (2, 3, 1)]), -8),
            (make_multigraph([(1, 2, 1), (3, 4, 1)]), 6),
        ]
    )
    assert code == EXIT_OK
    assert parse_polynomial(out.strip()) == expected
    assert out.strip() == "2{1,2}^2 - 8{1,2}{1,3} + 6{1,2}{3,4}"
    assert elapsed < 0.1
    report(f"criterion 1: worked example exact via CLI in {elapsed * 1e3:.1f} ms")


def test_criterion_02_theorem_suite():
    graphs = [
        G12,
        edge(1, 2, 2),
        make_multigraph([(1, 2, 1), (2, 3, 1)]),
        make_multigraph([(1, 2, 1), (3, 4, 1)]),
        make_multigraph([(1, 2, 1), (1, 3, 1), (2, 3, 1)]),
    ]
    worst = 0.0
    for g in graphs:
        for n in (1, 2, 3):
            t0 = time.perf_counter()
            rep = theorem_verify(g, n)
            elapsed = time.perf_counter() - t0
            assert rep.equal, (g, n)
            assert elapsed < 10.0, (g, n, elapsed)
            worst = max(worst, elapsed)
    counts = theorem_verify(G12, 2)
    assert counts.raw_lhs_terms == 48 and counts.raw_rhs_terms == 16
    report(
        f"criterion 2: 15 theorem cases exact, worst case {worst:.2f} s, "
        "raw counts 48 vs 16"
    )


def test_criterion_03_derivation_examples():
    assert delta_v_plus(G12, 2) == GraphPolynomial.monomial(
        make_multigraph([(1, 2, 1)], [(2, 1)])
    )
    g13 = edge(1, 3)
    assert delta_v_minus(g13, 3) == GraphPolynomial.monomial(
        make_multigraph([(1, 3, 1)], [(2, 1)]), -1
    )
    step1 = compose(g13, leg(fresh_vertex(g13)))  # the gap label 2
    chained = (-1) * delta_v_minus(step1, 3)
    assert chained == GraphPolynomial.monomial(
        make_multigraph([(1, 3, 1)], [(2, 1), (4, 1)])
    )
    report("criterion 3: the three derivation examples reproduced exactly")


def test_criterion_04_pairing_counts():
    expected = [1, 3, 15, 105, 945, 10395]
    got = [len(enumerate_pairings(range(2 * m))) for m in range(1, 7)]
    assert got == expected
    assert count_matchings(12) == 10395  # independent recursive counter
    report(f"criterion 4: pairing counts {got} with m=6 cross-checked")


def test_criterion_05_closed_form_cross_check():
    all_pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    classes = {canonicalize(EMPTY)}
    for total in range(1, 4):
        for combo in combinations_with_replacement(all_pairs, total):
            classes.add(canonicalize(make_multigraph([(i, j, 1) for i, j in combo])))
    checked = 0
    for g in classes:
        assert big_delta(GraphPolynomial.monomial(g)) == delta_formula_direct(g), g
        checked += 1
    report(f"criterion 5: operator equals closed form on {checked} classes")


def test_criterion_06_deterministic_identities():
    model = sk_model(2, 0.5)
    t0 = time.perf_counter()
    rep1 = identity_check(model, G12, 1, method="quadrature", config=FINE_GRID,
                          tol=1e-6)
    rep2 = identity_check(model, G12, 2, method="quadrature", config=FINE_GRID,
                          tol=1e-5)
    elapsed = time.perf_counter() - t0
    assert rep1.passed and abs(rep1.rows[0].diff) <= 1e-6
    assert rep2.passed and abs(rep2.rows[0].diff) <= 1e-5
    assert elapsed < 60.0
    report(
        f"criterion 6: quadrature identities n=1 (|diff|={abs(rep1.rows[0].diff):.2e})"
        f" and n=2 (|diff|={abs(rep2.rows[0].diff):.2e}) in {elapsed:.1f} s"
    )


@pytest.mark.parametrize(
    "label, model_fn, seed",
    [
        ("SK N=3", lambda: sk_model(3, 0.5), 2024),
        ("EA ring of 4", lambda: ea_model((4,), 0.5), 2025),
    ],
)
def test_criterion_07_stochastic_identities(label, model_fn, seed):
    t0 = time.perf_counter()
    rep = identity_check(model_fn(), G12, 1, n_samples=200000, seed=seed)
    elapsed = time.perf_counter() - t0
    row = rep.rows[0]
    assert abs(row.diff) <= 3 * row.diff_stderr + 1e-12, row
    assert elapsed < 600.0
    report(
        f"criterion 7: {label} CRN identity diff={row.diff:.2e} "
        f"(3sigma={3 * row.diff_stderr:.2e}) in {elapsed:.0f} s"
    )


def test_criterion_08_analytic_spot_values():
    quad = quadrature_expectation(sk_model(2, 0.0), G12)
    assert abs(quad.mean - 0.5) <= 1e-12
    for n in (3, 4):
        est = quenched_expectation(sk_model(n, 0.0), G12, 200, 1)
        assert abs(est.mean - 1.0 / n) <= 3 * est.stderr + 1e-12
    ea = quenched_expectation(ea_model((4,), 0.0), G12, 200, 1)
    assert abs(ea.mean) <= 3 * ea.stderr + 1e-12
    report("criterion 8: infinite-temperature values 1/N (SK) and 0 (EA link)")


def test_criterion_09_wick_baselines():
    mc = wick_baseline_check(sk_model(3, 0.5), 20000, 777)
    assert mc.passed
    quad = wick_baseline_check(sk_model(2, 0.5), method="quadrature", tol=1e-8)
    assert quad.passed
    worst_quad = max(abs(r.diff) for r in quad.rows)
    report(
        f"criterion 9: baselines within 3 sigma (MC) and {worst_quad:.1e} <= 1e-8 "
        "(quadrature)"
    )


def test_criterion_10_evenness_and_determinism():
    model = sk_model(3, 0.5)
    plus = deformed_expectation(model, G12, 0.25, 500, 99)
    minus = deformed_expectation(model, G12, -0.25, 500, 99, antithetic_h=True)
    assert (plus.mean, plus.stderr) == (minus.mean, minus.stderr)
    runs = {
        (est.mean, est.stderr)
        for _ in range(3)
        for est in [quenched_expectation(model, G12, 600, 31)]
    }
    assert len(runs) == 1
    reps = {
        (rep.rows[0].lhs, rep.rows[0].rhs)
        for _ in range(3)
        for rep in [identity_check(model, G12, 1, n_samples=200, seed=7)]
    }
    assert len(reps) == 1
    report("criterion 10: antithetic estimators and reruns bit-identical")
