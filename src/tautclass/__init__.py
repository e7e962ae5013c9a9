"""Exact characteristic classes of flat bundles over ordered fields.

The package computes the Witt class of flat projective-line bundles and
the Euler classes eu, eu_+ and eu_k of flat bundles for projective
general linear groups, entirely in exact arithmetic, and machine-checks
the identities relating them: boundary-relation triviality, the linear
relation among the eu_k, the binomial proportionality factors, cross
and cup product formulas, and the signature comparison with the Witt
class.  A floating-point rotation-number oracle independently validates
Euler numbers of surface representations.
"""

__version__ = "0.1.0"

# read by the benchmark's environment record; the kernels are plain Python
KERNEL_BACKEND = "pure"
