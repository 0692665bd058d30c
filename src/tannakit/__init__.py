"""tannakit: exact-arithmetic Tannaka reconstruction at desk scale.

Given a finitely presented category and a fiber functor into exact
finite-dimensional vector spaces, compute the predual End^∨(F) of the
natural-endomorphism space with its coalgebra / bialgebra / Hopf
structure, lift the functor to comodules, build the reconstruction
morphism ρ̃, and verify every categorical axiom as an exact matrix
identity.  A decidable coherence calculus for symmetric monoidal
expressions rides along.
"""

from .fields import GF, QQ, Field, FieldError, PrimeField, RationalField
from .linalg import (Matrix, SubspaceBasis, kernel_basis, kron, quotient,
                     rank, rref, solve_matrix)
from .moncat import (AdjacentSwap, Compose, DualPairing, Identity, SymExpr,
                     Tensor, block_swap, check_triangles, coherence_equal,
                     dual_map, eval_in_vec, format_expr, parse_expr, perm_of,
                     standard_pairing, transport_pairing)
from .catpres import (DualityData, FiberFunctor, Generator, JobDocument,
                      Path, PresentedCategory, TensorData, load_document,
                      path_eval, validate_duality_data, validate_functor,
                      validate_tensor_data)
from .coend import (CoendPresentation, EndSpace, check_dinaturality,
                    cocomposition, coevaluation, counit, nat_space,
                    nat_to_pairing, natvee, pairing_bijection_report,
                    pairing_to_nat)
from .hopf import (AlgebraData, BialgebraData, CoalgebraData, ComoduleData,
                   HopfData, UnsupportedCoalgebraError, characters,
                   check_character, check_comodule, check_comodule_morphism,
                   comatrix_coalgebra, convolution, convolution_group,
                   convolve_functionals, grouplike_group,
                   grouplikes, is_grouplike, scalar_algebra)
from .report import Check, Report, VerificationError, check_equal, max_norm
from .tannaka import (alpha_tilde, comodule_morphism_space, endvee_antipode,
                      endvee_bialgebra, endvee_coalgebra, intertwines_all,
                      lift_functor, morphism_image_span, rep_of_comodule,
                      rho_tilde, check_rep_correspondence)

__version__ = "0.1.0"
