"""Realizable waveforms: pulse trains and bang-bang signals.

Both shapes follow the two-step philosophy of this control scheme: the
feedback law is used in a design pass, and the resulting waveform is what the
experiment actually applies.

A pulse train replaces the continuous field by equal-duration pulses whose
amplitudes are the window averages of the delay-free design field for the
run's initial state, applied open loop. The train belongs to the system it
was designed on and runs only there; the applied train is the run's
Trajectory.fields, exact on the integration grid. Averaging is what lets a few tens of
pulses track the field; sampling the instantaneous feedback at pulse
boundaries instead locks the loop into a limit cycle once pulses span several
time units and never converges.

Bang-bang control keeps only the sign of the feedback, mapping it onto
{+f0, 0, -f0} with a small deadband against floating-point sign chatter. The
sign is re-evaluated from the current state every `hold` time units: holding
for a fraction of a level-spacing period keeps the pulses realizable (visible
widths, variable spacing) and avoids the per-step chatter regime, where the
strong quantized drive pins the trajectory onto the f=0 manifold and the
descent slows to a creep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .control_law import feedback_law
from .dynamics import ControlSystem, FieldLaw, Trajectory, check_design_system, simulate
from .errors import InputError
from .experiments import SweepPoint, paired_sweep


@dataclass
class PulseTrainSpec:
    """n_pulses equal-duration pulses tiling [0, horizon]."""

    n_pulses: int
    horizon: float

    def __post_init__(self):
        if self.n_pulses < 1:
            raise InputError(f"n_pulses must be >= 1, got {self.n_pulses}")
        if not self.horizon > 0:
            raise InputError(f"horizon must be positive, got {self.horizon}")
        self.horizon = float(self.horizon)

    @property
    def duration(self) -> float:
        return self.horizon / self.n_pulses


@dataclass
class BangBangSpec:
    """Three-level quantizer: +-f0 outside the deadband, 0 inside.

    hold is the re-quantization interval in time units; values at or below
    the integrator step mean per-step switching.
    """

    f0: float = 0.1
    deadband: float = 1e-8
    hold: float = 0.5

    def __post_init__(self):
        if not self.f0 > 0:
            raise InputError(f"f0 must be positive, got {self.f0}")
        if self.deadband < 0:
            raise InputError(f"deadband must be >= 0, got {self.deadband}")
        if not self.hold > 0:
            raise InputError(f"hold must be positive, got {self.hold}")


def _pulse_start_steps(n_steps: int, n_pulses: int) -> list[int]:
    """First grid step of each pulse (integer arithmetic, no drift)."""
    return [(p * n_steps + n_pulses - 1) // n_pulses for p in range(n_pulses)]


@dataclass(frozen=True, eq=False)
class _PulseTrainLaw(FieldLaw):
    """Window-averaged design field on a pulse grid, applied open loop.

    design is (times, fields, initial state) of the given design run, or None
    to run the delay-free closed loop from the simulated state. Either way
    the design belongs to design_sys, the only system the law runs on.
    """

    design_sys: ControlSystem
    spec: PulseTrainSpec
    design: tuple | None

    def _compile(self, sys, psi0, n_steps, dt):
        check_design_system(self.design_sys, sys)
        spec = self.spec
        if abs(n_steps * dt - spec.horizon) > 1e-9 * max(1.0, spec.horizon):
            raise InputError(
                f"pulse train spans [0, {spec.horizon}] but the run covers [0, {n_steps * dt}]"
            )
        if spec.duration < dt * (1.0 - 1e-9):
            raise InputError(
                f"pulse duration {spec.duration} is shorter than the step dt={dt}"
            )
        if self.design is None:
            design_fields = simulate(sys, feedback_law(sys), psi0, spec.horizon, dt).fields
        else:
            times, design_fields, design_psi0 = self.design
            if len(times) != n_steps + 1 or abs(times[1] - times[0] - dt) > 1e-9 * dt:
                raise InputError("pulse reference grid does not match the run grid")
            if np.max(np.abs(design_psi0 - psi0)) > 1e-12:
                raise InputError("pulse reference was designed for a different initial state")

        n = spec.n_pulses
        bounds = _pulse_start_steps(n_steps, n) + [n_steps]
        f_applied = np.empty(n_steps + 1)
        for p in range(n):
            f_applied[bounds[p] : bounds[p + 1]] = np.mean(design_fields[bounds[p] : bounds[p + 1]])
        f_applied[n_steps] = f_applied[n_steps - 1]
        return f_applied


def pulsed_law(
    sys: ControlSystem, spec: PulseTrainSpec, reference: Trajectory | None = None
) -> FieldLaw:
    """FieldLaw applying the pulse train designed on sys, open loop.

    Pulse p holds grid steps ceil(p n / n_pulses) up to the next pulse's
    start, and the run's traj.fields is the applied train. When no reference
    is given, the law runs the delay-free closed loop on sys for the run's
    initial state itself. The law keeps only the reference's times, fields
    and initial state, and simulate refuses to run it on a system other
    than sys.
    """
    design = None
    if reference is not None:
        design = (reference.times, reference.fields, reference.states[0].copy())
    return _PulseTrainLaw(sys, spec, design)


def bang_bang_quantize(f_raw: float, spec: BangBangSpec) -> float:
    """Map a raw field value onto {+f0, 0, -f0} by sign with a deadband."""
    return float(_kernels.bang_quantize(float(f_raw), spec.f0, spec.deadband))


@dataclass(frozen=True)
class _BangBangLaw(FieldLaw):
    spec: BangBangSpec

    def _compile(self, sys, psi0, n_steps, dt):
        stride = max(1, int(round(self.spec.hold / dt)))
        return _kernels.BangBang(stride, self.spec.f0, self.spec.deadband)


def bang_bang_law(sys: ControlSystem, spec: BangBangSpec) -> FieldLaw:
    """FieldLaw quantizing the feedback to a three-level bang-bang signal.

    The law is closed loop: it does not read sys and acts on the system
    simulate is given.
    """
    return _BangBangLaw(spec)


def pulse_count_sweep(
    sys: ControlSystem,
    counts,
    n_states: int,
    seed: int,
    horizon: float = 150.0,
    dt: float = 0.01,
) -> list[SweepPoint]:
    """Mean/std of the final fidelity versus pulse count, over seeded states.

    The state batch is shared across counts (paired design), as in the delay
    sweep, and each state's design run is computed once.
    """
    return paired_sweep(
        sys,
        [int(c) for c in counts],
        lambda count, reference: pulsed_law(sys, PulseTrainSpec(count, horizon), reference),
        n_states,
        seed,
        horizon,
        dt,
        design=True,
    )
