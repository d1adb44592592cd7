"""congruence-lab: exact computations in SL_n(Z) and its congruence quotients.

Everything is computed over plain Python integers (no floating point, no
fixed-width overflow). The toolkit covers elementary-matrix decomposition
over Z and Z/N, lifting mod-N matrices to integer matrices of determinant 1,
principal congruence subgroup levels and indices, exact torsion orders and
spectra, and explicit finite-quotient witnesses that separate matrices from
the identity.
"""

from .errors import (
    BadModulus,
    CapExceeded,
    CongruenceLabError,
    CounterexampleFound,
    DimensionMismatch,
    IdentityInput,
    NotInGamma,
    NotPrime,
    NotPrimePower,
    NotUnimodular,
    ParseError,
)
from .gamma import (
    gamma_level,
    gamma_member,
    sample_gamma,
    successive_quotient_order,
)
from .intmat import IntMatrix, sample_sl
from .modular import (
    DEFAULT_ENUMERATION_CAP,
    ModMatrix,
    crt_combine,
    enumerate_sl,
    sl_order_formula,
)
from .torsion import (
    TORSION_ORDER_4,
    TORSION_ORDER_6,
    OrderResult,
    candidate_orders,
    matrix_order,
    minkowski_probe,
    mod_spectrum,
    spectrum_bound,
)
from .witnesses import (
    CongruenceWitness,
    TracelessMatrix,
    phi_general,
    phi_general_preimage,
    phi_k,
    phi_preimage,
    power_congruence_check,
    sl_basis,
    sl_elements,
    witness_p,
    witness_rf,
)
from .words import (
    ElementaryGen,
    ElementaryWord,
    decompose_int,
    decompose_local,
    decompose_mod,
    lift_to_int,
)

__version__ = "0.1.0"

__all__ = [
    "BadModulus",
    "CapExceeded",
    "CongruenceLabError",
    "CongruenceWitness",
    "CounterexampleFound",
    "DEFAULT_ENUMERATION_CAP",
    "DimensionMismatch",
    "ElementaryGen",
    "ElementaryWord",
    "IdentityInput",
    "IntMatrix",
    "ModMatrix",
    "NotInGamma",
    "NotPrime",
    "NotPrimePower",
    "NotUnimodular",
    "OrderResult",
    "ParseError",
    "TORSION_ORDER_4",
    "TORSION_ORDER_6",
    "TracelessMatrix",
    "candidate_orders",
    "crt_combine",
    "decompose_int",
    "decompose_local",
    "decompose_mod",
    "enumerate_sl",
    "gamma_level",
    "gamma_member",
    "lift_to_int",
    "matrix_order",
    "minkowski_probe",
    "mod_spectrum",
    "phi_general",
    "phi_general_preimage",
    "phi_k",
    "phi_preimage",
    "power_congruence_check",
    "sample_gamma",
    "sample_sl",
    "sl_basis",
    "sl_elements",
    "sl_order_formula",
    "spectrum_bound",
    "successive_quotient_order",
    "witness_p",
    "witness_rf",
]
