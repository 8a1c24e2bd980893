"""Immersions, fluxes, symmetries, spheres, necks and file export."""

from .curves import (cs_closing_period, cs_curve, cs_curve_sampler,
                     cs_parameters, cs_residual, hs_curve, hs_curve_sampler)
from .export import (export, format_float, report_from_json, report_to_json,
                     trajectory_csv, validate_obj)
from .immersion import (CurveSampler, Sampler, contact_pairing, equatorial_factor,
                        immersion_sampler, lagrangian_phase, legendrian_residual,
                        phase_relation_residual, twist_curve_sampler, twisted_product)
from .neck import NeckComparison, neck_rescale
from .spheres import (Bulge, MarkedSphere, Waist, approximating_spheres,
                      bulge_sphere_distance, sphere_distance, waists_and_bulges)
from .symmetry import (mhat, reflection_matrix, rotation_determinant_residual,
                       symmetry_residuals, ttilde)
from .torque import (SuBasisElement, TorqueReport, diagonal_basis_element,
                     sphere_quadrature, sphere_volume, su_basis, su_matrix,
                     t_generator, torque, torque_closed_form)

__all__ = [name for name in dir() if not name.startswith("_")]
