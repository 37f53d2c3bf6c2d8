#!/usr/bin/env python3
"""Exact verification that contracting 2n derivations equals (2n-1)!! powers
of the stability operator, on a family of small monomials.

Every comparison is exact polynomial equality over canonical classes with
arbitrary-precision integer coefficients -- no tolerances anywhere.
"""

import sys
import time

from overlap_lab import BudgetError, format_monomial, parse_monomial, theorem_verify

GRAPHS = [
    parse_monomial("{1,2}"),
    parse_monomial("{1,2}^2"),
    parse_monomial("{1,2}{2,3}"),
    parse_monomial("{1,2}{3,4}"),
    parse_monomial("{1,2}{1,3}{2,3}"),
]

print(f"{'monomial':>18} {'n':>2} {'equal':>6} {'raw L/R':>12} "
      f"{'canonical':>10} {'time':>8}")
print("-" * 62)

t_total = time.perf_counter()
for g in GRAPHS:
    for n in (0, 1, 2, 3):
        t0 = time.perf_counter()
        rep = theorem_verify(g, n)
        print(
            f"{format_monomial(g):>18} {n:>2} {str(rep.equal):>6} "
            f"{rep.raw_lhs_terms:>5}/{rep.raw_rhs_terms:<6} "
            f"{rep.canonical_lhs_terms:>5} {time.perf_counter() - t0:>7.3f}s"
        )
        assert rep.equal

print("-" * 62)
print(f"all cases exact in {time.perf_counter() - t_total:.2f}s total")

print("""
The resource guard refuses anything that cannot be handled exactly:
""")
try:
    # (2n-1)!! alone has millions of digits here; it is refused before it
    # is multiplied out.
    theorem_verify(parse_monomial("{1,2}"), 10**6)
except BudgetError as exc:
    print(f"  refused: {exc}")
else:
    sys.exit("  nothing was refused")
