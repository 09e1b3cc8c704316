"""Exact counting of prime-power divisibility blocks in Pascal's triangle.

The package computes, for a prime p, how many entries of row n have p-adic
valuation exactly j (theta), packages those counts as row polynomials, and
synthesizes the universal polynomials P_j that express the normalized counts
through digit-pattern statistics of n.  Everything downstream of floating
point (root finding, asymptotics) lives in :mod:`ppk.analysis`; the rest is
exact rational arithmetic.
"""

from .analysis import (
    ConvergenceError,
    RootProfile,
    ScanReport,
    classify_word,
    closed_form_family,
    coefficient_sum,
    scan_convergent_words,
    term_bound_asymptotic,
    term_bound_series,
)
from .ratcore import (
    PolyQ,
    Rational,
    RationalFunctionQ,
    SeriesQ,
    rational_to_str,
)
from .theta import T_poly, Tbar, theta0
from .words import Word, expand, factor_count, weight
from .synth import (
    BlockPolynomial,
    Monomial,
    alpha_coefficient,
    block_polynomial,
    block_polynomials_up_to,
    cumulative_polynomial,
    log_rw_series,
    monomial_series,
    monomials_up_to_weight,
    r_w_closed,
    r_w_quotient,
    rw_identity_scan,
    telescope_identity_holds,
    telescope_random_check,
)

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "PolyQ",
    "SeriesQ",
    "RationalFunctionQ",
    "rational_to_str",
    "Word",
    "expand",
    "factor_count",
    "weight",
    "T_poly",
    "Tbar",
    "theta0",
    "Monomial",
    "BlockPolynomial",
    "alpha_coefficient",
    "r_w_quotient",
    "r_w_closed",
    "log_rw_series",
    "monomials_up_to_weight",
    "monomial_series",
    "block_polynomial",
    "block_polynomials_up_to",
    "cumulative_polynomial",
    "telescope_identity_holds",
    "telescope_random_check",
    "rw_identity_scan",
    "RootProfile",
    "ScanReport",
    "ConvergenceError",
    "classify_word",
    "scan_convergent_words",
    "closed_form_family",
    "coefficient_sum",
    "term_bound_series",
    "term_bound_asymptotic",
    "__version__",
]
