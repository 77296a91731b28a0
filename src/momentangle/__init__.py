"""Workbench for moment-angle manifolds and their torus quotients:
manifold certification via homology spheres, combinatorial freeness of
subtorus actions, characteristic matrices, and Stiefel-Whitney data."""

from .charclasses import (GradedMod2Ring, Mod2Class, face_ring_mod2,
                          h2_of_quotient, sw_numbers, sw_triviality,
                          total_sw_class, w2_of_quotient)
from .homology import (HomologyProfile, SphereCertificate, homology,
                       is_homology_sphere)
from .intlinalg import (AbelianGroupPresentation, IntMatrix,
                        SmithDecomposition, cokernel, det,
                        hermite_normal_form, is_primitive_rows,
                        kernel_lattice, rank_rational, row_lattice_equal,
                        smith)
from .pipeline import VerificationReport, verify_c69_example
from .search import SearchConfig, SearchResult, search_free
from .simplicial import (SimplicialComplex, boundary_of_simplex,
                         cyclic_polytope_boundary, new_complex)
from .torus import (ExtensionResult, FreenessResult, PreconditionError,
                    Subtorus, acts_freely, characteristic_duality_holds,
                    cyclic69_free_subtorus, cyclic69_quotient_matrix,
                    extend_to_characteristic, is_rational_characteristic,
                    quotient_projection, torus_from_kernel)

__version__ = "0.1.0"
