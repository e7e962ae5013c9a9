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

from .complexes import (
    Chain,
    DeltaComplex,
    Simplex,
    SurfaceComplex,
    boundary,
    cup_evaluate,
    product_chain,
    product_complex,
    sphere_complex,
    standard_simplex_complex,
    surface_complex,
)
from .configs import (
    GenericityError,
    UPlusSymbol,
    USymbol,
    boundary_symbol_sum,
    homological_core_check,
    u_symbol,
    uplus_symbol,
    witt_triple_symbol,
)
from .exactmath import (
    Matrix,
    QQ,
    QuadExt,
    QuadraticField,
    determinant,
    parse_scalar,
    render_scalar,
    sign,
)
from .flatbundles import (
    FlatBundle,
    RelatorError,
    Section,
    Selector,
    bundle_from_surface_rep,
    evaluate_class,
    is_generic_section,
    joint_scalar_sets,
    product_bundle,
    random_generic_section,
)
from .groupcoh import (
    BarChain2,
    cocycle_identity_residual,
    commuting_pair_cycle,
    evaluate_bar,
    surface_cycle_from_rep,
    witt_cocycle,
)
from .oracle import OracleError, rotation_euler
from .witt import WittElement, hilbert_symbol, square_class

__version__ = "0.1.0"

# read by the benchmark's environment record; the kernels are plain Python
KERNEL_BACKEND = "pure"
