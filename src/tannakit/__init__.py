"""tannakit: exact-arithmetic Tannaka reconstruction at desk scale.

Given a finitely presented category and a fiber functor into exact
finite-dimensional vector spaces, compute the predual End^∨(F) of the
natural-endomorphism space with its coalgebra / bialgebra / Hopf
structure, lift the functor to comodules, build the reconstruction
morphism ρ̃, and verify every categorical axiom as an exact matrix
identity.  A decidable coherence calculus for symmetric monoidal
expressions rides along.

The package namespace holds the reconstruction pipeline, the types and
checks it is driven with, and the library's exception classes; every
other name is imported from its submodule.
"""

from .fields import GF, QQ, FieldError, InputError
from .linalg import Matrix, kron, rank, rref
from .moncat import (ExprError, check_triangles, coherence_equal, dual_map,
                     eval_in_vec, standard_pairing)
from .catpres import (FiberFunctor, Generator, PresentationError,
                      PresentedCategory, load_document)
from .coend import (cocomposition, counit, nat_space, natvee,
                    pairing_bijection_report)
from .hopf import (AlgebraData, BialgebraData, CoalgebraData, ComoduleData,
                   UnsupportedCoalgebraError, characters, check_comodule,
                   check_comodule_morphism, convolution_group, grouplike_group,
                   grouplikes)
from .report import VerificationError
from .tannaka import (check_rep_correspondence, comodule_morphism_space,
                      endvee_antipode, endvee_bialgebra, endvee_coalgebra,
                      intertwines_all, lift_functor, morphism_image_span,
                      rho_tilde)

__version__ = "0.1.0"
