"""Overlap-graph algebra for quenched spin systems, with a small numerical lab.

The symbolic side lives in :mod:`overlap_lab.graphs` (canonical multigraph
monomials, exact integer polynomials, pairing enumeration) and
:mod:`overlap_lab.operators` (Gaussian derivation, Wick contraction, the
stability operator, and the identity verifier).  Text/JSON formats are in
:mod:`overlap_lab.exprio`.  The numerical side, :mod:`overlap_lab.lab`,
builds small Sherrington-Kirkpatrick and Edwards-Anderson instances and
checks the exact finite-size identities against the symbolic engine.
"""

from .graphs import (
    EMPTY,
    CanonicalMultigraph,
    GraphPolynomial,
    Multigraph,
    Pairing,
    canonicalize,
    compose,
    edge,
    enumerate_pairings,
    leg,
    make_multigraph,
    poly_add,
    poly_mul,
    poly_scale,
    relabel,
    sort_key,
)
from .operators import (
    DELTA,
    WICK,
    BudgetError,
    TermCounts,
    TheoremReport,
    apply_word,
    big_delta,
    delta,
    delta_formula_direct,
    delta_v_minus,
    delta_v_plus,
    double_factorial,
    fresh_vertex,
    term_count_report,
    theorem_verify,
    wick_contract,
)
from .exprio import (
    ExpressionParseError,
    JsonSchemaError,
    format_monomial,
    format_polynomial,
    from_json,
    parse_monomial,
    parse_polynomial,
    to_json,
)
from .lab import (
    DeformationConfig,
    IdentityReport,
    IdentityRow,
    ModelInstance,
    QuenchedEstimate,
    deformed_expectation,
    ea_model,
    fd_derivative,
    gaussian_ibp_check,
    gibbs_weights,
    identity_check,
    link_overlap_ea,
    overlap_sk,
    quadrature_expectation,
    quenched_expectation,
    replica_moment,
    sk_model,
    stability_deviation,
    wick_baseline_check,
)

__version__ = "0.1.0"
