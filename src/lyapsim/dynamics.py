"""Closed-system controlled dynamics.

Integrates i d|psi>/dt = (H0 + f(t) H1) |psi> with a fixed-step RK4 loop and
explicit per-step renormalization. The applied field comes from a FieldLaw,
evaluated once per step start and held constant across the step, which keeps
delay buffers and pulse boundaries on a deterministic grid. A law reaches the
integrator in one way: `simulate` compiles it for the run's grid and hands
the result to `_kernels.simulate_loop` (a built-in law compiles to its
applied-field array or a kernel record, a user law to its field(t, psi)
hook). An exact piecewise-constant propagator built on the eigensolver
serves as the independent reference for the integrator.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels, linalg
from .errors import InputError, NumericalError

#: Abort integration when the pre-renormalization norm drift of a single
#: step exceeds this (signals a pathological field law or too-large dt).
NORM_DRIFT_GUARD = 1e-6

#: Default step size in rescaled time units (max eigenvalue of H0 == 1).
DEFAULT_DT = 0.01


@dataclass
class ControlSystem:
    """A validated steering problem: Hamiltonians, target state, feedback gain.

    The target must be an eigenvector of h0 (the steering theory assumes an
    H0 eigenstate as the goal).
    """

    h0: np.ndarray
    h1: np.ndarray
    target: np.ndarray
    gain_k: float = 1.0

    def __post_init__(self):
        self.h0 = linalg.as_hermitian(self.h0)
        self.h1 = linalg.as_hermitian(self.h1)
        self.target = linalg.as_state(self.target)
        dim = self.h0.shape[0]
        if self.h1.shape[0] != dim or self.target.shape[0] != dim:
            raise InputError(
                f"dimension mismatch: h0 {self.h0.shape}, h1 {self.h1.shape}, "
                f"target {self.target.shape}"
            )
        if not self.gain_k > 0:
            raise InputError(f"gain_k must be positive, got {self.gain_k}")
        self.gain_k = float(self.gain_k)
        energy = np.vdot(self.target, self.h0 @ self.target).real
        residual = linalg.norm(self.h0 @ self.target - energy * self.target)
        if residual > 1e-9:
            raise InputError(
                f"target is not an eigenvector of h0 (residual {residual:.3e})"
            )

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def h1_target(self) -> np.ndarray:
        """H1|target>, the constant vector the feedback law contracts against."""
        return self.h1 @ self.target


def check_design_system(designed_on: ControlSystem, sys: ControlSystem) -> None:
    """Refuse to run a waveform designed on one system on another.

    Two systems are the same when h0, h1, target and gain_k are exactly
    equal; the identity test first keeps the common case free.
    """
    if designed_on is sys:
        return
    differ = [
        name
        for name in ("h0", "h1", "target", "gain_k")
        if not np.array_equal(getattr(designed_on, name), getattr(sys, name))
    ]
    if differ:
        raise InputError(
            f"the law was designed on another system ({', '.join(differ)} differ); "
            "it runs only on its design system"
        )


@dataclass
class Trajectory:
    """Recorded run: sample times, states, applied field, V and F per sample.

    A reduced record (reduced=True, as simulate with states=False makes)
    keeps every sample's time, field, V and F but only the first and the
    last state: states then has two rows, so states[0] and final_state
    still read the run's ends. Any other record has one state per sample.
    """

    times: np.ndarray
    states: np.ndarray
    fields: np.ndarray
    lyapunov: np.ndarray
    fidelity: np.ndarray
    reduced: bool = False

    def __post_init__(self):
        n = len(self.times)
        if not len(self.fields) == len(self.lyapunov) == len(self.fidelity) == n:
            raise InputError("trajectory arrays must share one length")
        if len(self.states) != (2 if self.reduced else n):
            raise InputError(
                "trajectory states must hold every sample"
                + (", or the first and last of a reduced one" if self.reduced else "")
            )
        if n == 0:
            raise InputError("trajectory must contain at least one sample")
        if np.any(np.diff(self.times) <= 0):
            raise InputError("trajectory times must be strictly increasing")
        for name, arr in (("lyapunov", self.lyapunov), ("fidelity", self.fidelity)):
            if np.any(arr < -1e-9) or np.any(arr > 1 + 1e-9):
                raise InputError(f"{name} values leave [0, 1]")
        if np.max(np.abs(self.lyapunov + self.fidelity - 1.0)) > 1e-9:
            raise InputError("lyapunov + fidelity must equal 1 at every sample")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])

    def index_at(self, t: float) -> int:
        """Index of the recorded sample closest to time t."""
        i = int(np.searchsorted(self.times, t))
        if i >= len(self.times):
            return len(self.times) - 1
        if i > 0 and abs(self.times[i - 1] - t) <= abs(self.times[i] - t):
            return i - 1
        return i

    def fidelity_at(self, t: float) -> float:
        return float(self.fidelity[self.index_at(t)])


class FieldLaw:
    """Applied-field rule, evaluated at each step start and held across the step.

    A user law subclasses FieldLaw and implements field(t, psi), which
    simulate calls once per step with the step's start time and state. psi
    is a row of the integrator's state store, valid only for the duration
    of the call: copy it to keep it. The built-in laws are immutable records
    that override _compile instead.
    """

    def field(self, t: float, psi: np.ndarray) -> float:
        raise NotImplementedError

    def _compile(self, sys: ControlSystem, psi0: np.ndarray, n_steps: int, dt: float):
        """What _kernels.simulate_loop runs for this law on the run's grid."""
        return self.field


class PiecewiseConstantLaw(FieldLaw):
    """Open-loop field from explicit (duration, value) segments; zero afterwards."""

    def __init__(self, segments):
        segments = [(float(d), float(v)) for d, v in segments]
        if not segments:
            raise InputError("need at least one segment")
        for i, (d, v) in enumerate(segments):
            if not 0 < d < math.inf:
                raise InputError(f"segments[{i}]: duration must be positive and finite, got {d}")
            if not math.isfinite(v):
                raise InputError(f"segments[{i}]: value must be finite, got {v}")
        self.segments = segments
        self._bounds = np.cumsum([d for d, _ in segments])
        self._values = np.array([v for _, v in segments])

    def _compile(self, sys, psi0, n_steps, dt):
        t = np.arange(n_steps + 1) * dt
        segment = np.searchsorted(self._bounds, t + 1e-12, side="right")
        return np.append(self._values, 0.0)[segment]


def _step_count(horizon: float, dt: float) -> int:
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    if not horizon < math.inf:  # NaN as well
        raise InputError(f"horizon must be finite, got {horizon}")
    if horizon < dt:
        raise InputError(f"horizon {horizon} is shorter than one step dt={dt}")
    return int(math.floor(horizon / dt + 1e-9))


def _check_memory(need: int, what: str, remedy: str) -> None:
    """Refuse work whose records, need bytes, would not fit in physical memory."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # the OS does not say
    if need > have:
        raise InputError(
            f"{what} ({need / 2**30:.3g} GiB), more than the "
            f"{have / 2**30:.3g} GiB of physical memory; {remedy}"
        )


def simulate(
    sys: ControlSystem,
    law: FieldLaw,
    psi0: np.ndarray,
    horizon: float,
    dt: float = DEFAULT_DT,
    states: bool = True,
) -> Trajectory:
    """Integrate the controlled dynamics under an applied-field law.

    The first record is the initial condition at t = 0; each subsequent
    record follows one RK4 step of size dt. Every sample's time, field, V
    and F are recorded; with states=False only the first and the last state
    are kept (a reduced Trajectory), which the sweeps use, since they read
    only F. Raises NumericalError when a single step drifts the norm by
    more than NORM_DRIFT_GUARD before renormalization.
    """
    n_steps = _step_count(horizon, dt)
    psi0 = linalg.as_state(psi0)
    if psi0.shape[0] != sys.dim:
        raise InputError(f"state dimension {psi0.shape[0]} != system dimension {sys.dim}")
    ring_rows = None if states else _kernels.RING_ROWS
    kept = n_steps + 1 if states else min(ring_rows, n_steps + 1)
    _check_memory(
        (n_steps + 1) * 32 + kept * sys.dim * 16,
        f"horizon={horizon:g} with dt={dt:g} records {n_steps + 1} samples"
        + (f" and their states of dimension {sys.dim}" if states else ""),
        "shorten horizon or raise dt",
    )
    dt = float(dt)
    kept_states, fields, fid, bad_step = _kernels.simulate_loop(
        sys.h0,
        sys.h1,
        sys.target,
        sys.h1_target(),
        sys.gain_k,
        psi0,
        n_steps,
        dt,
        law._compile(sys, psi0, n_steps, dt),
        NORM_DRIFT_GUARD,
        ring_rows,
    )
    if bad_step >= 0:
        raise NumericalError(
            f"norm drift exceeded {NORM_DRIFT_GUARD:.0e} at step {bad_step} "
            f"(t={bad_step * dt:.4g}); dt is likely too large for this field law"
        )
    return _make_trajectory(np.arange(n_steps + 1) * dt, kept_states, fields, fid, not states)


def propagate_exact(sys: ControlSystem, segments, psi0: np.ndarray) -> Trajectory:
    """Exact evolution for a piecewise-constant field, recorded at segment ends.

    Each segment (duration, field value) is propagated with the unitary
    e^{-i (H0 + f H1) duration} built from the eigensolver; this is the
    reference the RK4 integrator is checked against.
    """
    psi0 = linalg.as_state(psi0)
    if psi0.shape[0] != sys.dim:
        raise InputError(f"state dimension {psi0.shape[0]} != system dimension {sys.dim}")
    segments = PiecewiseConstantLaw(segments).segments  # validated as the law does
    n = len(segments)
    states = np.empty((n + 1, sys.dim), dtype=np.complex128)
    times = np.empty(n + 1)
    fields = np.empty(n + 1)
    states[0] = psi0
    times[0] = 0.0
    t = 0.0
    psi = psi0
    for i, (duration, value) in enumerate(segments):
        h = sys.h0 + value * sys.h1
        psi = linalg.expm_apply(h, duration, psi)
        t += duration
        states[i + 1] = psi
        times[i + 1] = t
        fields[i] = value
    fields[n] = segments[-1][1]
    return _make_trajectory(times, states, fields, _kernels.fidelity(states, sys.target))


def _make_trajectory(times, states, fields, fid, reduced=False) -> Trajectory:
    return Trajectory(
        times=times,
        states=states,
        fields=fields,
        lyapunov=1.0 - fid,
        fidelity=fid,
        reduced=reduced,
    )
