"""Exact counting of prime-power divisibility blocks in Pascal's triangle.

The package computes, for a prime p, how many entries of row n have p-adic
valuation exactly j (theta), packages those counts as row polynomials, and
synthesizes the universal polynomials P_j that express the normalized counts
through digit-pattern statistics of n.  Everything downstream of floating
point (root finding, asymptotics) lives in :mod:`ppk.analysis`; the rest is
exact rational arithmetic.  The package root re-exports nothing: each name
is imported from the module that defines it.
"""

__version__ = "0.1.0"
