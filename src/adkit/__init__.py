"""Exact-arithmetic toolkit for anti-dendriform structures on
low-dimensional associative algebras: verification, enumeration,
isomorphism evidence, and a machine-readable registry of the classified
families.
"""

from .algebra import (AdPair, StructureConstants, UnaryAlgebra,
                      apply_basis_change, center_ad, center_associative,
                      check_antidendriform, is_associative, is_two_nilpotent,
                      power_series, product, quotient_by_center, sum_algebra)
from .iso import (Fingerprint, SearchResult, Witness, fingerprint,
                  search_witness, verify_witness)
from .scalars import Poly, QuadExt, Rational, poly_parse
from .solver import (ConstraintSystem, EnumerationResult, Family,
                     enumerate_compatible, eliminate, generate_constraints,
                     replay_certificate, sample_branch)

__all__ = [
    "AdPair", "StructureConstants", "UnaryAlgebra", "apply_basis_change",
    "center_ad", "center_associative", "check_antidendriform",
    "is_associative", "is_two_nilpotent", "power_series", "product",
    "quotient_by_center", "sum_algebra", "Fingerprint", "SearchResult",
    "Witness", "fingerprint", "search_witness", "verify_witness", "Poly",
    "QuadExt", "Rational", "poly_parse", "ConstraintSystem",
    "EnumerationResult", "Family", "enumerate_compatible", "eliminate",
    "generate_constraints", "replay_certificate", "sample_branch",
]

__version__ = "0.1.0"
