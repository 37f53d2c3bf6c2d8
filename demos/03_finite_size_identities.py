#!/usr/bin/env python3
"""The numerical laboratory: the derivative/stability-moment identity holds
exactly at finite size, and we can watch it hold.

The Gauss-Hermite grid reads its axes off the model: one per distinct
coupling sum that a Gibbs measure sees.  For the two-spin SK instance that
is one Gaussian per block, so the grid gives twelve-digit answers and the
finite-difference check is deterministic.  Three spins have three pair
sums and an EA ring one axis per bond, so their grids grow as the node
count to that power, and the lab budget decides which run.  Monte Carlo
with common random numbers reaches any size: the two sides of each
identity move together sample by sample.
"""

from overlap_lab import (
    DeformationConfig,
    ea_model,
    gaussian_ibp_check,
    identity_check,
    parse_monomial,
    quadrature_expectation,
    sk_model,
    wick_baseline_check,
)

g = parse_monomial("{1,2}")
fine = DeformationConfig(
    lambda_grid=tuple(s * m for m in (0.0125, 0.025, 0.05, 0.1, 0.2)
                      for s in (1, -1))
)


def show(report):
    model = report.model.describe() if report.model else "two-point space"
    print(f"\n[{report.label}]  {model}  method={report.method} "
          f"samples={report.samples}")
    for row in report.rows:
        sig = f" +/- {row.diff_stderr:.2e}" if row.diff_stderr else ""
        print(f"  {row.label}")
        print(f"    lhs={row.lhs:+.8f}  rhs={row.rhs:+.8f}  "
              f"diff={row.diff:+.2e}{sig}  -> {'ok' if row.passed else 'VIOLATION'}")


print("=" * 70)
print(" DETERMINISTIC: GAUSS-HERMITE OVER THE COUPLING SUMS")
print("=" * 70)

sk2 = sk_model(2, 0.5)
est = quadrature_expectation(sk2, g, 0.0)
print(f"\nE({'{1,2}'}) at beta=0.5: {est.mean:.12f} "
      f"(truncation {est.truncation:.1e})")

show(identity_check(sk2, g, 1, method="quadrature", config=fine))
show(identity_check(sk2, g, 2, method="quadrature", config=fine, tol=1e-5))
show(wick_baseline_check(sk2, method="quadrature"))

est = quadrature_expectation(sk_model(3, 0.5), g, 0.0)
print(f"\nthree spins, three pair-sum axes: E({'{1,2}'}) = {est.mean:.12f} "
      f"(truncation {est.truncation:.1e})")
show(identity_check(ea_model((3,), 0.5), g, 1, method="quadrature", n_nodes=8))

print()
print("=" * 70)
print(" STOCHASTIC: THREE SPINS AND AN EA RING, COMMON RANDOM NUMBERS")
print("=" * 70)

show(identity_check(sk_model(3, 0.5), g, 1, n_samples=40000, seed=11))
show(identity_check(ea_model((4,), 0.5), g, 1, n_samples=40000, seed=12))
show(wick_baseline_check(sk_model(3, 0.5), 40000, 13))

print()
print("=" * 70)
print(" THE INTEGRATION-BY-PARTS RULE BEHIND THE IDENTITY")
print("=" * 70)

show(gaussian_ibp_check(40000, 14))
