"""Pseudospectral laboratory for the 2D Zakharov-Kuznetsov equation.

Periodic-box simulation of both dispersion forms, the almost-conservation
(modified energy) machinery with its multilinear correction terms, the
scaling and rotation symmetries, a Duhamel fixed-point iterator, and
randomized stability probes for the associated function-space estimates.
"""

from .errors import (ZKLabError, ConfigurationError, UsageError, DataError,
                     ResolutionError, InstabilityError)
from .spectral import (Grid2D, Field, make_grid, make_field, from_coefficients,
                       derivative, dealias)
from .bumps import chi, psi, smoothstep
from .littlewood_paley import (LPProjector, dyadic_shells, is_dyadic,
                               lp_project, partition_values, shell_weight)
from .forms import DispersionForm
from .trajectory import SpaceTimeField, modulation_project
from .quadrature import cumulative_integral, definite_integral, trapezoid_weights
from .norms import (NormReport, sobolev_norm, besov_norm_2_1, lebesgue_norm,
                    mixed_lebesgue_norm, xsb_norm, pvariation_norm,
                    twisted_variation, y_half_proxy)
from .dynamics import (DT_OMEGA_LIMIT, EtdrkTableau, SolverState, etdrk4_tableau,
                       evolve, linear_propagator, max_dispersion, step_etdrk4)
from .scaling import (RotationMap, rescale, rotate_from_symmetrized,
                      rotate_to_symmetrized)
from .imethod import (IMultiplier, IncrementReport, ScanResult, GwpLedger,
                      energy, gwp_iteration, growth_exponent, horizon_exponent,
                      i_operator, increment_identity_check, increment_scan,
                      lambda3, lambda4, lambda_exponent, mass, modified_energy,
                      regularity_threshold)
from .picard import PicardResult, picard_horizon, picard_iterate
from .ic import (PRESETS, cosine_mode, gaussian_bump, make_initial,
                 random_band_limited, shell_field, two_pulses)
from .probes import (CutoffDecomposition, ProbeReport, bilinear_probe,
                     cutoff_decompose, cutoff_probe, gh_bilinear_probe,
                     l4_probe, maximal_derivative_probe, strichartz_probe,
                     trilinear_form_probe)
from .reporting import (DiagnosticsRecorder, build_manifest, format_value,
                        read_frame_csv, validate_manifest, write_csv,
                        write_frame_csv, write_json)

__version__ = "0.1.0"
