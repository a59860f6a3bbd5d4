"""Shared test oracles, kept independent of the code paths they check."""

import numpy as np

from lyapsim import control_field


def random_unit_complex(rng, dim):
    x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return x / np.linalg.norm(x)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


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
