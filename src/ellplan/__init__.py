"""Certified planning of the local-search depth for submodular maximization.

The package answers one question exactly: how deep must the depth parameter
ell be so that the ratio target 1 - (1+1/ell)^(-ell) clears 1 - 1/e - eps?
Everything it claims is backed by exact rational arithmetic or by interval
enclosures with explicit series tail bounds.
"""

from ellplan.bounds import (
    BoundKind,
    phi,
    rho,
    verify_bound_ordering,
    verify_bounds,
)
from ellplan.certified import (
    Comparison,
    Enclosure,
    PrecisionExhausted,
    RefinementPolicy,
    Verdict,
    cmp_certified,
    enclose_e,
    enclose_exp,
    enclose_log1p,
)
from ellplan.costs import (
    BigMagnitude,
    TableRow,
    check_against_expected,
    reproduce_table,
    savings_factor,
)
from ellplan.planner import (
    EllPlan,
    EpsSpec,
    asymptotic_residual,
    certificate_sharp,
    ell_bf,
    ell_ps,
    ell_star,
    plan,
)
from ellplan.testbed import (
    CoverageInstance,
    OracleCounter,
    brute_force_opt,
    bundled_instance,
    check_monotone_submodular,
    f_eval,
    generate_random_instance,
    greedy,
    load_instance,
    ratio_report,
)

__all__ = [
    "BigMagnitude",
    "BoundKind",
    "Comparison",
    "CoverageInstance",
    "EllPlan",
    "Enclosure",
    "EpsSpec",
    "OracleCounter",
    "PrecisionExhausted",
    "RefinementPolicy",
    "TableRow",
    "Verdict",
    "asymptotic_residual",
    "brute_force_opt",
    "bundled_instance",
    "certificate_sharp",
    "check_against_expected",
    "check_monotone_submodular",
    "cmp_certified",
    "ell_bf",
    "ell_ps",
    "ell_star",
    "enclose_e",
    "enclose_exp",
    "enclose_log1p",
    "f_eval",
    "generate_random_instance",
    "greedy",
    "load_instance",
    "phi",
    "plan",
    "ratio_report",
    "reproduce_table",
    "rho",
    "savings_factor",
    "verify_bound_ordering",
    "verify_bounds",
]
