"""Polynomial irreducibility over commutative semirings.

The package couples an ideal-based irreducibility criterion (conditions
on coefficient membership in a subtractive prime ideal and its square)
with an independent brute-force factorization oracle that certifies the
criterion's conclusion on desk-scale instances.  Built-in carriers are
the naturals, the Booleans, min-plus tropical arithmetic, and the
gcd/product semiring of natural numbers; arbitrary finite semirings can
be loaded from operation-table files.
"""

from . import errors
from .eisenstein import (
    DEFAULT_HYPOTHESIS_BOUND,
    EisensteinReport,
    TraceReport,
    Verdict,
    check_corollary,
    check_eisenstein,
    proof_trace,
)
from .ideals import (
    Certificate,
    FiniteSetIdeal,
    Ideal,
    IdealPredicateReport,
    PrincipalIdeal,
    ideal_closure,
    principal_ideal,
)
from .oracle import (
    DEFAULT_DEGREE_WINDOW,
    FactorizationOutcome,
    Finding,
    HuntReport,
    TheoremStats,
    hunt_subtractivity,
    search_factorizations,
    verify_theorem,
)
from .polynomials import Polynomial
from .semirings import (
    BUILTIN_NAMES,
    INFINITY,
    CapabilityFlags,
    CarrierKind,
    ElementClassification,
    SemidomainVerdict,
    SemiringDescriptor,
    builtin_semiring,
    classify_element,
    from_table,
    semidomain_check,
)
from .tables import (
    AxiomReport,
    FiniteSemiring,
    boolean_table,
    canonical_form,
    check_axioms,
    enumerate_ideals,
    enumerate_semirings,
    format_semiring_file,
    mod2_table,
    mod3_table,
    n3_saturating_table,
    parse_semiring_file,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "DEFAULT_DEGREE_WINDOW",
    "DEFAULT_HYPOTHESIS_BOUND",
    "INFINITY",
    "AxiomReport",
    "CapabilityFlags",
    "CarrierKind",
    "Certificate",
    "EisensteinReport",
    "ElementClassification",
    "FactorizationOutcome",
    "Finding",
    "FiniteSemiring",
    "FiniteSetIdeal",
    "HuntReport",
    "Ideal",
    "IdealPredicateReport",
    "Polynomial",
    "PrincipalIdeal",
    "SemidomainVerdict",
    "SemiringDescriptor",
    "TheoremStats",
    "TraceReport",
    "Verdict",
    "boolean_table",
    "builtin_semiring",
    "canonical_form",
    "check_axioms",
    "check_corollary",
    "check_eisenstein",
    "classify_element",
    "enumerate_ideals",
    "enumerate_semirings",
    "errors",
    "format_semiring_file",
    "from_table",
    "hunt_subtractivity",
    "ideal_closure",
    "mod2_table",
    "mod3_table",
    "n3_saturating_table",
    "parse_semiring_file",
    "principal_ideal",
    "proof_trace",
    "search_factorizations",
    "semidomain_check",
    "verify_theorem",
]
