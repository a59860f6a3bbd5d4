"""Applying the feedback field with a time shift f(t - tau).

Three mechanisms are selectable. "history" re-synthesizes the field from the
stored state a delay ago (causal, so tau >= 0 only; before any signal exists
the applied field is zero). "replay" shifts a precomputed delay-free field
record, the open-loop reading, and works for either sign of tau. "taylor"
approximates f(t - tau) from the current state via the second-order expansion
f - f' tau + f'' tau^2 / 2, which is how negative delays are treated
analytically. By default positive delays use history and negative delays use
taylor.

Delayed lookups land on the integration grid at the nearest earlier sample
(no interpolation); the O(dt) error sits below the integration error at the
default step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import ControlSystem, FieldLaw, Trajectory, check_design_system
from .errors import InputError
from .experiments import SweepPoint, paired_sweep

MODES = ("history", "replay", "taylor")


@dataclass
class DelaySpec:
    """Delay tau (negative = advance) and the mechanism producing f(t - tau)."""

    tau: float
    mode: str = "auto"

    def __post_init__(self):
        self.tau = float(self.tau)
        if self.mode not in MODES + ("auto",):
            raise InputError(f"unknown delay mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "history" and self.tau < 0:
            raise InputError("history mode is causal state feedback and needs tau >= 0")

    def resolved_mode(self) -> str:
        if self.mode != "auto":
            return self.mode
        return "history" if self.tau >= 0 else "taylor"


def delay_step_count(tau: float, dt: float) -> int:
    """Grid offset realizing a nearest-earlier lookup at t - tau."""
    return int(math.ceil(tau / dt - 1e-9))


def _check_tau(tau: float, n_steps: int, dt: float) -> None:
    horizon = n_steps * dt
    if abs(tau) > horizon + 1e-9:
        raise InputError(f"|tau| = {abs(tau)} exceeds the horizon {horizon}")


@dataclass(frozen=True)
class _PastStateLaw(FieldLaw):
    """The feedback of the state recorded tau ago (history mode)."""

    tau: float

    def _compile(self, sys, psi0, n_steps, dt):
        _check_tau(self.tau, n_steps, dt)
        return _kernels.PastFeedback(delay_step_count(self.tau, dt))


@dataclass(frozen=True, eq=False)
class _ReplayDelayLaw(FieldLaw):
    """The reference run's field shifted by tau, applied open loop on the
    system it was designed on."""

    design_sys: ControlSystem
    tau: float
    ref_fields: np.ndarray
    ref_dt: float
    ref_end: float

    def _compile(self, sys, psi0, n_steps, dt):
        check_design_system(self.design_sys, sys)
        _check_tau(self.tau, n_steps, dt)
        if abs(self.ref_dt - dt) > 1e-9 * max(1.0, dt):
            raise InputError(
                f"replay reference step {self.ref_dt} does not match run step {dt}"
            )
        if self.ref_end + 1e-9 < n_steps * dt:
            raise InputError(
                f"replay reference covers [0, {self.ref_end}] but the run needs [0, {n_steps * dt}]"
            )
        shift = delay_step_count(self.tau, dt)
        fields = np.zeros(n_steps + 1)
        lo = max(shift, 0)
        hi = min(n_steps + 1, shift + len(self.ref_fields))
        if hi > lo:
            fields[lo:hi] = self.ref_fields[lo - shift : hi - shift]
        return fields


@dataclass(frozen=True)
class _TaylorDelayLaw(FieldLaw):
    """The second-order expansion of f(t - tau) at the current state."""

    tau: float

    def _compile(self, sys, psi0, n_steps, dt):
        _check_tau(self.tau, n_steps, dt)
        return _kernels.TaylorFeedback(self.tau)


def delayed_law(sys: ControlSystem, spec: DelaySpec, reference: Trajectory | None = None) -> FieldLaw:
    """FieldLaw realizing f(t - tau) by the mechanism the DelaySpec selects.

    History and Taylor modes are closed loop: they do not read sys and act
    on the system simulate is given. Replay mode needs the delay-free
    closed-loop run on sys as reference; outside its recorded window the
    applied field is zero. The replay law keeps only the reference's field
    record, and simulate refuses to run it on a system other than sys.
    """
    mode = spec.resolved_mode()
    if mode == "history":
        if spec.tau < 0:
            raise InputError("history mode is causal state feedback and needs tau >= 0")
        return _PastStateLaw(spec.tau)
    if mode == "replay":
        if reference is None:
            raise InputError("replay mode needs the delay-free reference trajectory")
        times = reference.times
        if len(times) < 2:
            raise InputError("replay reference needs at least two samples")
        return _ReplayDelayLaw(
            sys,
            spec.tau,
            np.asarray(reference.fields, dtype=np.float64),
            float(times[1] - times[0]),
            float(times[-1]),
        )
    return _TaylorDelayLaw(spec.tau)


def delay_sweep(
    sys: ControlSystem,
    taus,
    n_states: int,
    seed: int,
    mode: str = "auto",
    horizon: float = 200.0,
    dt: float = 0.01,
) -> list[SweepPoint]:
    """Mean/std of the final fidelity versus delay, over seeded initial states.

    The same state batch is shared across all delays (paired design, for
    variance reduction); everything is deterministic in (seed, config).
    Replay mode runs each state's delay-free reference once.
    """
    return paired_sweep(
        sys,
        [float(t) for t in taus],
        lambda tau, reference: delayed_law(sys, DelaySpec(tau, mode), reference),
        n_states,
        seed,
        horizon,
        dt,
        design=mode == "replay",
    )
