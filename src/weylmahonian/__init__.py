"""Exact Weyl-Mahonian statistics for Weyl groups of types A, B/C and D.

The package computes the joint (length, Weyl-Major) generating polynomials of
the three infinite Weyl group families by two independent routes (a direct
sum over the group and the flag-counting recursions) and cross-checks them against a
brute-force flag-enumeration oracle over small prime fields.
"""

from .algebra import (
    DEFAULT_BOUND,
    ExactDivisionError,
    MultiPoly,
    TruncSeries,
    poly_from_json,
    poly_json,
    poly_latex_table,
    poly_text,
    poly_to_json,
)
from .checks import CheckReport, REGISTRY, run_identity_check
from .flaggeom import (
    FqSpace,
    canonical_basis,
    count_canonical_bases,
    enumerate_flags,
    enumerate_subspaces,
    flag_series,
    hyperbolic_space,
    linear_space,
    quadratic_space,
    refinement_count,
    standard_flag,
    symplectic_space,
)
from .rothe import RotheDiagram, rothe_diagram
from .statistics import (
    closed_form,
    mahonian_direct,
    mahonian_recursive,
    q_binomial,
    qbinomial_theorem_sides,
)
from .weylgroups import (
    GroupFamily,
    SignedPerm,
    compose,
    coxeter_word_length,
    descent_count,
    enumerate_group,
    greedy_reduced_word,
    inversions,
    inverse,
    length,
    pm_less,
    wmaj,
)

__all__ = [
    "DEFAULT_BOUND",
    "CheckReport",
    "ExactDivisionError",
    "FqSpace",
    "GroupFamily",
    "MultiPoly",
    "REGISTRY",
    "RotheDiagram",
    "SignedPerm",
    "TruncSeries",
    "canonical_basis",
    "closed_form",
    "compose",
    "count_canonical_bases",
    "coxeter_word_length",
    "descent_count",
    "enumerate_flags",
    "enumerate_group",
    "enumerate_subspaces",
    "flag_series",
    "greedy_reduced_word",
    "hyperbolic_space",
    "inverse",
    "inversions",
    "length",
    "linear_space",
    "mahonian_direct",
    "mahonian_recursive",
    "pm_less",
    "poly_from_json",
    "poly_json",
    "poly_latex_table",
    "poly_text",
    "poly_to_json",
    "q_binomial",
    "qbinomial_theorem_sides",
    "quadratic_space",
    "refinement_count",
    "rothe_diagram",
    "run_identity_check",
    "standard_flag",
    "symplectic_space",
    "wmaj",
]
