"""Overlap-graph algebra for quenched spin systems, with a small numerical lab.

The symbolic side lives in :mod:`overlap_lab.graphs` (canonical multigraph
monomials, exact integer polynomials, pairing enumeration) and
:mod:`overlap_lab.operators` (Gaussian derivation, Wick contraction, the
stability operator, and the identity verifier).  Text/JSON formats are in
:mod:`overlap_lab.exprio`.  The numerical side, :mod:`overlap_lab.lab`,
builds small Sherrington-Kirkpatrick and Edwards-Anderson instances and
checks the exact finite-size identities against the symbolic engine.

The lab, and numpy with it, loads on first use: the first access to
``overlap_lab.lab`` or to one of the names it exports here imports it, so
the symbolic side runs without numpy.
"""

from importlib import import_module as _import_module

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

#: Names the lab exports here; each resolves on first access.
_LAB_NAMES = frozenset({
    "DeformationConfig", "IdentityReport", "IdentityRow", "ModelInstance",
    "QuenchedEstimate", "deformed_expectation", "ea_model", "fd_derivative",
    "gaussian_ibp_check", "gibbs_weights", "identity_check", "link_overlap_ea",
    "overlap_sk", "quadrature_expectation", "quenched_expectation", "replica_moment",
    "sk_model", "stability_deviation", "wick_baseline_check",
})

__version__ = "0.1.0"

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | _LAB_NAMES | {"lab"}
)


def __getattr__(name):
    """Import the lab on first access to it or to a name it exports."""
    if name == "lab" or name in _LAB_NAMES:
        lab = _import_module(".lab", __name__)
        return lab if name == "lab" else getattr(lab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
