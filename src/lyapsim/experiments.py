"""Seeded presets and reproducible studies.

Provides the 5-level benchmark system, random initial states and random
diagonal-H0 instances for the dimension-scaling study, the sustained-crossing
convergence-time metric, and the run configurations the CLI consumes. All
randomness derives from numpy SeedSequence streams keyed by (base seed,
namespace indices), so a trial's result depends only on its own key, not on
which other trials run or in what order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._parallel import parallel_map
from .control_law import check_convergence, feedback_law
from .dynamics import ControlSystem, Trajectory, _check_memory, _step_count, simulate
from .errors import ConfigError, InputError, NumericalError

#: Ground-state levels below this pre-normalization norm are redrawn.
_MIN_DRAW_NORM = 1e-6

#: Minimum spectral gap accepted for random diagonal free Hamiltonians.
MIN_SPECTRAL_GAP = 1e-3

#: Fidelity must stay above threshold for this long to count as converged.
CONVERGENCE_HOLD = 10.0

#: Bytes a sweep keeps per trial until it ends (state, law, task, result),
#: rounded up: a 7-delay sweep measured about 0.9 kB per state plus 0.2 kB
#: per trial.
_TRIAL_BYTES = 1024


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a trial, keyed by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key)))


def preset_5dim() -> ControlSystem:
    """The 5-level benchmark: diagonal H0, star-coupled H1, ground-state target."""
    h0 = np.diag(np.array([0.2, 1.0, 0.8, 0.5, 0.6], dtype=np.complex128))
    h1 = np.zeros((5, 5), dtype=np.complex128)
    h1[0, 1:] = 1.0
    h1[1:, 0] = 1.0
    target = np.zeros(5, dtype=np.complex128)
    target[0] = 1.0
    return ControlSystem(h0=h0, h1=h1, target=target, gain_k=1.0)


def random_initial_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random state with uniform non-negative real amplitudes, unit norm."""
    if dim < 2:
        raise InputError(f"dim must be >= 2, got {dim}")
    while True:
        draw = rng.random(dim)
        nrm = float(np.sqrt(np.sum(draw * draw)))
        if nrm >= _MIN_DRAW_NORM:
            return (draw / nrm).astype(np.complex128)


def _draw_scaling_levels(dim: int, rng: np.random.Generator, max_retries: int = 1000):
    """Sorted diagonal levels in (0, 1] with max exactly 1 and gaps >= 1e-3."""
    for attempt in range(max_retries + 1):
        levels = 1.0 - rng.random(dim)  # uniform in (0, 1]
        levels = np.sort(levels / levels.max())
        if np.min(np.diff(levels)) >= MIN_SPECTRAL_GAP:
            return levels, attempt
    raise NumericalError(f"could not draw a {dim}-level spectrum with gap >= {MIN_SPECTRAL_GAP}")


def random_scaling_instance_with_retries(dim: int, rng: np.random.Generator):
    """Random diagonal-H0 instance with the star-coupled control Hamiltonian.

    Returns (system, number of spectrum redraws).
    """
    if dim < 2:
        raise InputError(f"dim must be >= 2, got {dim}")
    levels, retries = _draw_scaling_levels(dim, rng)
    h0 = np.diag(levels.astype(np.complex128))
    h1 = np.zeros((dim, dim), dtype=np.complex128)
    h1[0, 1:] = 1.0
    h1[1:, 0] = 1.0
    target = np.zeros(dim, dtype=np.complex128)
    target[0] = 1.0
    return ControlSystem(h0=h0, h1=h1, target=target, gain_k=1.0), retries


def _check_sweep_memory(n_states: int, n_trials: int, kept_per_state: int = 0) -> None:
    """Refuse a sweep whose trials would not fit in physical memory, before
    any state is drawn or any run starts."""
    _check_memory(
        n_trials * _TRIAL_BYTES + n_states * kept_per_state,
        f"n_states: {n_trials} trials of {n_states} states keep their records",
        "lower n_states",
    )


def seeded_initial_states(dim: int, n_states: int, seed: int) -> list[np.ndarray]:
    """The shared per-seed batch of initial states used by the sweeps."""
    if n_states < 1:
        raise InputError(f"n_states must be >= 1, got {n_states}")
    return [random_initial_state(dim, derive_rng(seed, 0, i)) for i in range(n_states)]


def convergence_time(traj: Trajectory, threshold: float = 0.95):
    """Earliest sustained crossing time of the fidelity threshold, or None.

    A crossing at time t counts only if the fidelity stays at or above the
    threshold for every recorded sample up to min(t + CONVERGENCE_HOLD,
    horizon); a bare first crossing can sit on a transient oscillation.
    """
    times = traj.times
    ok = traj.fidelity >= threshold
    starts = np.flatnonzero(ok)
    # Time of the first dip below threshold after each start; inf if none follows.
    dip_times = np.append(times[~ok], np.inf)
    next_dip = dip_times[np.searchsorted(np.flatnonzero(~ok), starts)]
    window_end = np.minimum(times[starts] + CONVERGENCE_HOLD, times[-1])
    held = starts[next_dip > window_end + 1e-12]
    return float(times[held[0]]) if len(held) else None


@dataclass
class SweepPoint:
    """One row of a parameter sweep: final-fidelity statistics over seeds."""

    parameter: float
    mean_fidelity: float
    std_fidelity: float
    n: int


def paired_sweep(sys, key, params, make_law, n_states, seed, horizon, dt, design=False):
    """One SweepPoint of final-fidelity statistics per parameter.

    Every parameter runs from the same seeded states (a paired design, for
    variance reduction). make_law(param, reference) builds a trial's law;
    with design=True, reference is the delay-free closed-loop run from the
    trial's state, run once per state, else None. A state's laws are built
    as soon as its design run ends, so only what they keep of it stays in
    memory while the trials run. A NumericalError names its run: the design
    run of state i, or key[j]=param, state i.
    """
    # Its state's laws keep a design run's fields, and a pulse law its times too.
    kept = 16 * (_step_count(horizon, dt) + 1) if design else 0
    _check_sweep_memory(n_states, n_states * len(params), kept)
    states = seeded_initial_states(sys.dim, n_states, seed)

    def run(name, law, psi0):
        try:
            return simulate(sys, law, psi0, horizon, dt, states=False)
        except NumericalError as exc:
            raise NumericalError(f"{name}: {exc}") from exc

    def state_laws(task):
        i, psi0 = task
        reference = run(f"design run, state {i}", feedback_law(sys), psi0) if design else None
        return [make_law(param, reference) for param in params]

    def trial(task):
        j, i = task
        name = f"{key}[{j}]={params[j]!r}, state {i}"
        return run(name, laws[i][j], states[i]).final_fidelity

    laws = parallel_map(state_laws, list(enumerate(states)))
    finals = parallel_map(trial, [(j, i) for j in range(len(params)) for i in range(n_states)])
    points = []
    for j, param in enumerate(params):
        chunk = np.array(finals[j * n_states : (j + 1) * n_states])
        points.append(
            SweepPoint(
                parameter=param,
                mean_fidelity=float(np.mean(chunk)),
                std_fidelity=float(np.std(chunk)),
                n=n_states,
            )
        )
    return points


@dataclass
class ScalingRow:
    dim: int
    mean_convergence_time: float
    mean_fidelity: float
    n_trials: int
    n_nonconverged: int
    n_retries: int


PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "custom")

#: Initial state used by the bang-bang demonstration run.
BANG_BANG_STATE = np.array([0.4314, 0.3627, 0.5948, 0.3991, 0.4114])

_PRESET_OVERRIDES: dict[str, dict] = {
    "fig1": {},
    "fig2": {"horizon": 150.0},
    "fig3": {"horizon": 150.0},
    "fig4": {},
    "fig5": {"horizon": 300.0, "n_states": 30},
    "custom": {},
}


@dataclass
class ExperimentConfig:
    """Fully resolved run configuration; every preset fills all fields."""

    preset: str = "custom"
    seed: int = 0
    n_states: int = 10
    horizon: float = 200.0
    dt: float = 0.01
    gain_k: float = 1.0
    tau: float = 1.0
    taus: list = field(default_factory=lambda: [-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0])
    delay_mode: str = "auto"
    n_pulses: int = 50
    pulse_counts: list = field(default_factory=lambda: [10, 20, 30, 40, 50, 75, 100])
    f0: float = 0.1
    deadband: float = 1e-8
    dims: list = field(default_factory=lambda: list(range(4, 17)))
    threshold: float = 0.95
    fidelity_time: float = 150.0
    full_state: bool = False


_INT_KEYS = {"seed", "n_states", "n_pulses"}
_FLOAT_KEYS = {"horizon", "dt", "gain_k", "tau", "f0", "deadband", "threshold", "fidelity_time"}
_POSITIVE_KEYS = {"n_states", "horizon", "dt", "gain_k", "f0", "threshold", "fidelity_time", "n_pulses"}


def _coerce(key: str, value):
    if key == "preset":
        if value not in PRESETS:
            raise ConfigError(f"preset: unknown preset {value!r}; expected one of {PRESETS}")
        return value
    if key == "delay_mode":
        if value not in ("auto", "history", "replay", "taylor"):
            raise ConfigError(f"delay_mode: unknown mode {value!r}")
        return value
    if key == "full_state":
        if not isinstance(value, bool):
            raise ConfigError(f"full_state: expected a boolean, got {value!r}")
        return value
    if key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return value
    if key in _FLOAT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        return float(value)
    if key == "taus":
        return _coerce_list(key, value, float)
    if key == "pulse_counts":
        return _coerce_list(key, value, int)
    if key == "dims":
        return _coerce_list(key, value, int)
    raise ConfigError(f"unknown config key {key!r}")


def _coerce_list(key, value, kind):
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"{key}: expected a non-empty list")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{key}[{i}]: expected a number, got {item!r}")
        if not math.isfinite(item):
            raise ConfigError(f"{key}[{i}]: expected a finite number, got {item!r}")
        if kind is int and int(item) != item:
            raise ConfigError(f"{key}[{i}]: expected an integer, got {item!r}")
        out.append(kind(item))
    return out


def build_config(mapping: dict) -> ExperimentConfig:
    """Resolve a key/value mapping into a validated ExperimentConfig.

    Preset defaults fill unspecified fields; unknown keys are rejected.
    """
    if not isinstance(mapping, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    for key in mapping:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    preset = _coerce("preset", mapping.get("preset", "custom"))
    resolved = dict(_PRESET_OVERRIDES[preset])
    for key, value in mapping.items():
        if key == "preset":
            continue
        resolved[key] = _coerce(key, value)
    cfg = replace(ExperimentConfig(preset=preset), **resolved)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    for key in _POSITIVE_KEYS:
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"{key}: must be positive, got {getattr(cfg, key)}")
    if cfg.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {cfg.seed}")
    if cfg.deadband < 0:
        raise ConfigError(f"deadband: must be >= 0, got {cfg.deadband}")
    if cfg.threshold > 1:
        raise ConfigError(f"threshold: must be in (0, 1], got {cfg.threshold}")
    if cfg.horizon < cfg.dt:
        raise ConfigError(f"horizon: must be >= dt, got horizon={cfg.horizon} dt={cfg.dt}")
    for i, c in enumerate(cfg.pulse_counts):
        if c < 1:
            raise ConfigError(f"pulse_counts[{i}]: must be >= 1, got {c}")
    for i, d in enumerate(cfg.dims):
        if d < 2:
            raise ConfigError(f"dims[{i}]: must be >= 2, got {d}")
        if (d - 1) * MIN_SPECTRAL_GAP >= 1:
            raise ConfigError(
                f"dims[{i}]: {d} levels in (0, 1] cannot keep spectral gaps "
                f">= {MIN_SPECTRAL_GAP:g}; need (d - 1) * {MIN_SPECTRAL_GAP:g} < 1"
            )
    if sorted(cfg.dims) != cfg.dims:
        raise ConfigError("dims: must be ascending")
    if cfg.preset == "fig5":
        _check_fidelity_time(cfg)


def _check_fidelity_time(cfg: ExperimentConfig) -> None:
    # Only the scaling study reads fidelity_time; other presets may run shorter.
    if cfg.fidelity_time > cfg.horizon:
        raise ConfigError(
            f"fidelity_time: must be <= horizon, got {cfg.fidelity_time} > {cfg.horizon}"
        )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready mapping; build_config inverts it exactly."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def _scaling_trial(args):
    seed, d_idx, dim, trial, horizon, dt, threshold, fidelity_time = args
    rng = derive_rng(seed, dim, trial)
    sys, retries = random_scaling_instance_with_retries(dim, rng)
    psi0 = random_initial_state(dim, rng)
    report = check_convergence(sys)
    if not report.invariant_set_trivial:
        raise NumericalError(f"generated instance violates the convergence preconditions (dim {dim})")
    try:
        traj = simulate(sys, feedback_law(sys), psi0, horizon, dt, states=False)
    except NumericalError as exc:
        raise NumericalError(f"dims[{d_idx}]={dim}, trial {trial}: {exc}") from exc
    t_conv = convergence_time(traj, threshold)
    return t_conv, traj.fidelity_at(fidelity_time), retries


def run_dimension_scaling(cfg: ExperimentConfig) -> list[ScalingRow]:
    """Convergence time and fixed-time fidelity versus system dimension, one row per dim.

    Each trial draws a fresh random instance and initial state from its own
    (seed, dim, trial) stream. Trials that never sustain the threshold are
    counted at the horizon and flagged in n_nonconverged rather than dropped,
    which would bias the means upward.
    """
    _check_fidelity_time(cfg)
    _check_sweep_memory(cfg.n_states, cfg.n_states * len(cfg.dims))
    tasks = [
        (cfg.seed, d_idx, dim, trial, cfg.horizon, cfg.dt, cfg.threshold, cfg.fidelity_time)
        for d_idx, dim in enumerate(cfg.dims)
        for trial in range(cfg.n_states)
    ]
    outcomes = parallel_map(_scaling_trial, tasks)
    rows = []
    for d_idx, dim in enumerate(cfg.dims):
        chunk = outcomes[d_idx * cfg.n_states : (d_idx + 1) * cfg.n_states]
        times = [t if t is not None else cfg.horizon for t, _, _ in chunk]
        rows.append(
            ScalingRow(
                dim=dim,
                mean_convergence_time=float(np.mean(times)),
                mean_fidelity=float(np.mean([f for _, f, _ in chunk])),
                n_trials=len(chunk),
                n_nonconverged=sum(1 for t, _, _ in chunk if t is None),
                n_retries=sum(r for _, _, r in chunk),
            )
        )
    return rows
