"""Quantum Lyapunov control simulator.

Synthesizes the state-feedback field that monotonically decreases
V = 1 - |<psi|target>|^2, integrates the controlled Schrodinger dynamics, and
studies the field under experimentally motivated distortions: time delay,
sample-and-hold pulse trains, and bang-bang quantization.
"""

from .control_law import (
    ConvergenceReport,
    check_convergence,
    classify_critical_point,
    control_field,
    feedback_law,
    fidelity,
    field_derivatives,
    lyapunov_rate,
    lyapunov_value,
)
from .delay import DelaySpec, delay_sweep, delayed_law
from .dynamics import (
    ControlSystem,
    FieldLaw,
    PiecewiseConstantLaw,
    Trajectory,
    propagate_exact,
    simulate,
)
from .errors import ConfigError, InputError, NumericalError
from .experiments import (
    ExperimentConfig,
    ScalingRow,
    SweepPoint,
    build_config,
    config_to_dict,
    convergence_time,
    derive_rng,
    preset_5dim,
    random_initial_state,
    run_dimension_scaling,
    seeded_initial_states,
)
from .linalg import expm_apply, hermitian_eigen
from .shaping import (
    BangBangSpec,
    PulseTrainSpec,
    bang_bang_law,
    bang_bang_quantize,
    pulse_count_sweep,
    pulsed_law,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BangBangSpec",
    "ConfigError",
    "ControlSystem",
    "ConvergenceReport",
    "DelaySpec",
    "ExperimentConfig",
    "FieldLaw",
    "InputError",
    "NumericalError",
    "PiecewiseConstantLaw",
    "PulseTrainSpec",
    "ScalingRow",
    "SweepPoint",
    "Trajectory",
    "bang_bang_law",
    "bang_bang_quantize",
    "build_config",
    "check_convergence",
    "classify_critical_point",
    "config_to_dict",
    "control_field",
    "convergence_time",
    "delay_sweep",
    "delayed_law",
    "derive_rng",
    "expm_apply",
    "feedback_law",
    "fidelity",
    "field_derivatives",
    "hermitian_eigen",
    "lyapunov_rate",
    "lyapunov_value",
    "preset_5dim",
    "propagate_exact",
    "pulse_count_sweep",
    "pulsed_law",
    "random_initial_state",
    "run_dimension_scaling",
    "seeded_initial_states",
    "simulate",
]
