"""Pseudo-spectral laboratory for the viscous primitive equations on a
periodic layer: hydrostatic pressure recovery, vertical-velocity
reconstruction, velocity decomposition through decoupled linear systems,
mollification of rough initial data, and numeric checks of the
quantitative inequalities driving the uniqueness theory.
"""

__version__ = "0.1.0"

from .errors import (BlowUpError, ConfigError, ConfigurationError,
                     ConstraintViolationError, DataError, HydrostatError,
                     SchedulingError)
from .spectral import (EVEN, NONE, ODD, Grid, PhysicalField, SpectralField,
                       dealias, derivative, div_h, field_from_function,
                       l2_norm, linf_norm, lq_norm, refine, symmetrize,
                       to_physical, to_spectral, zero_field)
from .hydrostatics import (Pressure2D, PressureSplit, barotropic_residual,
                           boundary_trace_norm, project_barotropic,
                           recover_w, solve_pressure, vertical_integral)
from .solver import (PhysicsParams, SolverState, StepControl, integrate,
                     make_state, step, step_linear)
from .decomposition import (DecompositionState, InitialDataSpec,
                            make_cusp_step_data, mollify,
                            prepare_initial_parts, run_decomposition)
from .estimates import (BoundParams, IterationInstance, NormRecord,
                        growth_envelope, iteration_base, ladyzhenskaya_ratio,
                        moser_bound_check, norms, perturbation_response,
                        sup_norm_envelope)
from .diagnostics import DiagnosticsSeries
from .io import read_snapshot, write_snapshot
