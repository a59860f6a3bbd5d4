"""The public surface of lyapsim, pinned so that a change to it shows in a diff."""

import lyapsim

PUBLIC_NAMES = [
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
    "__version__",
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


def test_public_names():
    assert sorted(lyapsim.__all__) == PUBLIC_NAMES
    assert all(hasattr(lyapsim, name) for name in PUBLIC_NAMES)
