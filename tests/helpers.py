"""Shared test oracles, kept independent of the code paths they check."""

import dataclasses
import math

import numpy as np

from lyapsim import ControlSystem, _kernels, bang_bang_quantize, control_field, field_derivatives


def random_unit_complex(rng, dim):
    x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return x / np.linalg.norm(x)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_system(rng, dim, level, gain_k):
    """Random Hermitian H0 and H1, the target H0's eigenvector number level % dim."""
    h0 = random_hermitian(rng, dim)
    target = np.linalg.eigh(h0)[1][:, level % dim]
    return ControlSystem(h0=h0, h1=random_hermitian(rng, dim), target=target, gain_k=gain_k)


def projector(target):
    """A = I - |target><target|, whose quadratic form <psi|A|psi> is V."""
    return np.eye(len(target), dtype=np.complex128) - np.outer(target, np.conj(target))


def altered_systems(sys):
    """{name: copy of sys with only that field changed} for h0, h1, target
    and gain_k; the new target is H0's top eigenvector, so sys's must not be."""
    return {
        "h0": dataclasses.replace(sys, h0=sys.h0 / 2),
        "h1": dataclasses.replace(sys, h1=2 * sys.h1),
        "target": dataclasses.replace(sys, target=np.linalg.eigh(sys.h0)[1][:, -1]),
        "gain_k": dataclasses.replace(sys, gain_k=2 * sys.gain_k),
    }


def closed_loop_rhs(sys, psi):
    f = control_field(psi, sys)
    return -1j * (sys.h0 @ psi + f * (sys.h1 @ psi))


def coupled_rk4_step(sys, psi, h):
    """RK4 step of the self-consistent closed loop (field re-evaluated per
    stage), used as the finite-difference oracle for field derivatives. The
    production integrator deliberately freezes the field across a step, which
    would contaminate centered differences at O(h)."""
    k1 = closed_loop_rhs(sys, psi)
    k2 = closed_loop_rhs(sys, psi + 0.5 * h * k1)
    k3 = closed_loop_rhs(sys, psi + 0.5 * h * k2)
    k4 = closed_loop_rhs(sys, psi + h * k3)
    out = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return out / np.sqrt(np.vdot(out, out).real)


def eq9_field(psi, gain_k=1.0):
    """The 5-level preset's feedback written out component by component."""
    return -gain_k * (psi[0] * (np.conj(psi[1]) + np.conj(psi[2]) + np.conj(psi[3]) + np.conj(psi[4]))).imag


def reference_trajectory_csv(traj, full_state=False):
    """The trajectory CSV written cell by cell with format(x, ".17g")."""
    header = ["t", "f", "V", "F"]
    if full_state:
        for i in range(1, traj.states.shape[1] + 1):
            header += [f"re_psi_{i}", f"im_psi_{i}"]
    lines = [",".join(header)]
    for row in range(len(traj)):
        cells = [traj.times[row], traj.fields[row], traj.lyapunov[row], traj.fidelity[row]]
        if full_state:
            for amp in traj.states[row]:
                cells += [amp.real, amp.imag]
        lines.append(",".join(format(float(x), ".17g") for x in cells))
    return "\n".join(lines) + "\n"


def loop_convergence_time(traj, threshold, hold):
    """Earliest sustained crossing, scanned sample by sample."""
    fid, times = traj.fidelity, traj.times
    n = len(times)
    ok = fid >= threshold
    next_below = np.empty(n + 1, dtype=np.int64)
    next_below[n] = n
    for i in range(n - 1, -1, -1):
        next_below[i] = i if not ok[i] else next_below[i + 1]
    horizon = times[-1]
    for i in range(n):
        if not ok[i]:
            continue
        window_end = min(times[i] + hold, horizon)
        j = next_below[i]
        if j == n or times[j] > window_end + 1e-12:
            return float(times[i])
    return None


def oracle_run(sys, psi0, horizon, dt, field_at, drift_tol=1e-6):
    """Per-step reference loop: four-stage RK4 steps, field_at(i, states) held
    across step i. Returns (states, fields, bad_step); the run stops at the
    first step whose pre-renormalization drift exceeds drift_tol, else
    bad_step is -1."""
    n_steps = int(math.floor(horizon / dt + 1e-9))
    states, fields = [np.asarray(psi0, dtype=np.complex128)], []
    for i in range(n_steps + 1):
        fields.append(float(field_at(i, states)))
        if i == n_steps:
            break
        psi, drift = _kernels.rk4_step(sys.h0, sys.h1, fields[-1], dt, states[-1])
        if not drift <= drift_tol:
            return np.array(states), np.array(fields), i
        states.append(psi)
    return np.array(states), np.array(fields), -1


def feedback_at(sys, delay_steps=0):
    """The feedback of the state delay_steps ago; zero before it exists."""
    return lambda i, s: control_field(s[i - delay_steps], sys) if i >= delay_steps else 0.0


def taylor_at(sys, tau):
    """f - f' tau + f'' tau^2 / 2 at the current state."""

    def at(i, s):
        df, d2f = field_derivatives(s[i], sys)
        return control_field(s[i], sys) - df * tau + 0.5 * d2f * tau * tau

    return at


def bang_at(sys, spec, stride):
    """The quantized feedback of the state at the latest multiple of stride."""
    return lambda i, s: bang_bang_quantize(control_field(s[i - i % stride], sys), spec)


def replay_at(design_fields, shift):
    """design_fields shifted right by shift steps; zero outside the record."""
    return lambda i, s: design_fields[i - shift] if 0 <= i - shift < len(design_fields) else 0.0


def pulses_at(design_fields, n_pulses):
    """Mean of design_fields over the pulse holding step i; pulse p starts at
    step ceil(p n / n_pulses), and the last sample belongs to the last pulse."""
    n = len(design_fields) - 1

    def at(i, s):
        p = min(i * n_pulses // n, n_pulses - 1)
        return np.mean(design_fields[-(-p * n // n_pulses) : -(-(p + 1) * n // n_pulses)])

    return at
