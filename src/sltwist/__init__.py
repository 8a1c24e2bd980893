"""sltwist: twisted special Legendrian curves in S^3 and what they build.

Computes, classifies and verifies the one-parameter families of twisted
curves for each admissible integer pair (p, q): conserved quantities,
periods and angular periods by independent routes, closure onto rational
angular periods, Killing-field fluxes, discrete symmetries, and the
catenoid necks of the associated rotationally invariant Legendrian
cylinders.
"""

from .catenoid import (catenoid_lifetime, lifetime_routes, unit_profile,
                       verify_catenoid_symmetry)
from .closure import (BracketingError, ClosedCurveCheck, ClosureReport,
                      RationalTarget,
                      find_tau_for_angular_period, half_period_classification,
                      k0_from_target, necklace, necklace_scaling_ratio,
                      scan_brackets, verify_closed)
from .ode_engine import (EventError, IntegrationError, Tolerances, Trajectory,
                         integrate, locate_event)
from .periods import (PeriodData, angular_periods, branch_integral, partial_periods_quadrature,
                      period_ode, pthat_quadrature, pthat_quadrature_psi2)
from .twisted_curve import (AdmissiblePair, SphereState, TwistParam,
                            TwistTrajectory, alpha_tau, f_poly, f_prime,
                            initial_state, solve_w, tau_max, velocity, y_extrema)
from .variation import (AsymptoticsReport, LinearisedSolution, asymptotic_constants,
                        check_asymptotics, dpthat_dtau, dpthat_dtau_cross_check,
                        solve_Q, time_scale)

__version__ = "0.1.0"
