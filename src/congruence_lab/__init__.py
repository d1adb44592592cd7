"""congruence-lab: exact computations in SL_n(Z) and its congruence quotients.

Everything is computed over plain Python integers (no floating point, no
fixed-width overflow). The toolkit covers elementary-matrix decomposition
over Z and Z/N, lifting mod-N matrices to integer matrices of determinant 1,
principal congruence subgroup levels and indices, exact torsion orders and
spectra, and explicit finite-quotient witnesses that separate matrices from
the identity.
"""

from .errors import *
from .gamma import *
from .intmat import *
from .modular import *
from .torsion import *
from .witnesses import *
from .words import *

__version__ = "0.1.0"

# The public names are exactly the __all__ lists of the modules star-imported above.
__all__ = sorted(
    errors.__all__
    + gamma.__all__
    + intmat.__all__
    + modular.__all__
    + torsion.__all__
    + witnesses.__all__
    + words.__all__
)
