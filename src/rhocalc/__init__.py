"""rhocalc: exact symbolic computation in color-graded commutative algebra."""

from .cyclo import Cyclo
from .grading import (CommutationFactor, Degree, GroupSpec, super_factor,
                      torus_factor, trivial_factor)
from .algebra import (Context, GradedPoly, Var, lift_poly, prime_context,
                      rho_commutator, substitute)
from .derivation import (Derivation, LieStructure, ce_differential, commutator,
                         infinitesimal_deformation, is_homological, partial)
from .matrix import (GradedMatrix, classify_tuple, inverse, left_act,
                     linearize_ber, linearize_det, matrix_commutator, rho_ber,
                     rho_det, rho_det_properties_check, rho_tr, right_act,
                     transpose)
from .geometry import (Atlas, BundleSpec, Chart, DeRhamChart, ShiftedCotangent,
                       TransitionMap, cartan_report, chain_rule_check,
                       cocycle_check, compose, cotangent_bundle, de_rham,
                       de_rham_transition,
                       identity_transition, interior_product, jacobian,
                       jacobian_berezinian, lie_derivative,
                       lift_to_shifted_cotangent, make_chart,
                       q_structure_report, schouten, shift_degree, shift_pi,
                       shifted_cotangent, tangent_bundle, transition_invertible)
from .volume import (ExactnessResult, ModularClassReport, VolumeForm,
                     divergence, divergence_on_chart, exactness_solve,
                     lie_derivative_volume, modular_class, volumes_equivalent)
from .scenarios import (builtin_scenarios, cstar_scenario, derham_scenario,
                        shifted_cotangent_scenario, torus_scenario)

__version__ = "0.1.0"
