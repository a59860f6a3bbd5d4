"""Hot numeric kernels for the closed-loop integrator.

With the field f held over a step, the classic RK4 map of
dpsi/dt = -i (H0 + f H1) psi is the degree-4 Taylor polynomial of
exp(B0 + f B1), B = -i dt H, and so exactly a polynomial in f:

    R(f) = sum_{k<=4} f^k M_k.

`rk4_matrices` builds the M_k once per (system, dt). `simulate_loop` stacks
them with the linear functionals the field laws read (t^dag and w^dag, where
t is the target and w = H1 t; for the Taylor law also t^dag X and w^dag X for
X in H0, H1, H0^2, H0 H1 + H1 H0, H1^2) into one matrix, so a single matvec
z = big @ psi yields everything: the overlaps that give the field and the
next state [1, f, f^2, f^3, f^4] @ z[:5d].reshape(5, d), which is then
renormalized under the drift guard.

`simulate_loop` runs whatever a field law compiles to. The closed-loop laws
are frozen records (`Feedback`, `PastFeedback`, `TaylorFeedback`,
`BangBang`); an open-loop law is its array of applied fields; a user law is
a callable field(t, psi). One loop walks the grid in holds, runs of steps
under one field value. At a hold start it samples the law: an open-loop law
reads its array, the feedback, delayed, Taylor and user laws read the state
at every step (so their holds are one step long), and the bang-bang law
re-quantizes the feedback every stride steps and holds it in between.

A one-step hold is the matvec above. A longer hold (an open-loop run of equal
values, bang-bang between re-quantizations) of L steps builds R(f) once,
takes the powers R^1..R^L by doubling, reused while f repeats, and gets the
hold's states as the normalized rows of powers @ psi. Each step's drift is
the ratio of consecutive norms, so the first step that fails the guard is
reported as in a one-step hold. L is capped at BLOCK_CAP: the partition
depends only on the law, and one hold's powers take at most BLOCK_CAP * d^2
complex numbers.

The classic four-stage `rk4_step` is kept as the reference the polynomial
map is tested against.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

#: Most steps propagated as one hold of powers of R(f).
BLOCK_CAP = 64


@dataclass(frozen=True)
class Feedback:
    """Apply the feedback of the current state."""


@dataclass(frozen=True)
class PastFeedback:
    """Apply the feedback of delay_steps steps ago; zero before it exists."""

    delay_steps: int


@dataclass(frozen=True)
class TaylorFeedback:
    """Apply f - f' tau + f'' tau^2 / 2 of the current state."""

    tau: float


@dataclass(frozen=True)
class BangBang:
    """Quantize the feedback onto {+f0, 0, -f0} every stride steps; hold it between."""

    stride: int
    f0: float
    deadband: float


def bang_quantize(f_raw, f0, deadband):
    if f_raw > deadband:
        return f0
    if f_raw < -deadband:
        return -f0
    return 0.0


def rk4_step(h0, h1, f, dt, psi):
    """One RK4 step of dpsi/dt = -i (H0 + f H1) psi with f held constant.

    Returns (renormalized state, pre-renormalization norm drift).
    """
    k1 = -1j * (h0 @ psi + f * (h1 @ psi))
    p = psi + (0.5 * dt) * k1
    k2 = -1j * (h0 @ p + f * (h1 @ p))
    p = psi + (0.5 * dt) * k2
    k3 = -1j * (h0 @ p + f * (h1 @ p))
    p = psi + dt * k3
    k4 = -1j * (h0 @ p + f * (h1 @ p))
    out = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    nrm = np.sqrt(np.vdot(out, out).real)
    if nrm > 0.0:
        out = out / nrm
    return out, abs(nrm - 1.0)


def rk4_matrices(h0, h1, dt):
    """M_0..M_4, shape (5, d, d), with the RK4 map R(f) = sum_k f^k M_k."""
    dim = h0.shape[0]
    b0 = (-1j * dt) * h0
    b1 = (-1j * dt) * h1
    m = np.zeros((5, dim, dim), dtype=np.complex128)
    term = np.eye(dim, dtype=np.complex128)[None]  # (B0 + f B1)^n / n! by powers of f
    m[0] = term[0]
    for n in range(1, 5):
        nxt = np.zeros((n + 1, dim, dim), dtype=np.complex128)
        nxt[:-1] += term @ b0
        nxt[1:] += term @ b1
        term = nxt / n
        m[: n + 1] += term
    return m


def _taylor_operators(h0, h1):
    """The X whose <v|X|psi> the Taylor law reads besides <v|psi>; see _taylor."""
    return (h0, h1, h0 @ h0, h0 @ h1 + h1 @ h0, h1 @ h1)


def _functionals(target, h1_target, ops=()):
    """Rows r with r @ psi = <v|psi>, then <v|X|psi> for X in ops; v = target, H1 target."""
    vs = np.stack((target, h1_target)).conj()
    return np.vstack([vs] + [vs[0] @ x for x in ops] + [vs[1] @ x for x in ops])


def _monomials(f):
    f2 = f * f
    return np.array((1.0, f, f2, f2 * f, f2 * f2))


def _feedback(a, c, gain_k):
    # f = -k Im(<t|psi><psi|w>) with a = <t|psi>, c = <w|psi>.
    return -gain_k * (a * c.conjugate()).imag


def _taylor(z, gain_k):
    """(f, df/dt, d2f/dt2) from the Taylor functionals' values z.

    With P = |psi><psi| and H = H0 + f H1:
        df/dt   = k Re(<g|[H,P]H1|g>)
        d2f/dt2 = k Im(<g|[H,[H,P]]H1|g>) + k (df/dt) Re(<g|[H1,P]H1|g>)
    """
    a, c, t0, t1, t00, tx, t11, w0, w1, w00, wx, w11 = z
    f = _feedback(a, c, gain_k)
    pw = c.conjugate()
    tu1 = t0 + f * t1
    tu2 = t00 + f * tx + f * f * t11
    u1w = (w0 + f * w1).conjugate()
    u2w = (w00 + f * wx + f * f * w11).conjugate()
    df = gain_k * (tu1 * pw - a * u1w).real
    d2f = gain_k * (tu2 * pw + a * u2w - 2.0 * tu1 * u1w).imag
    d2f += gain_k * df * (t1 * pw - a * w1.conjugate()).real
    return f, df, d2f


def feedback_field(target, h1_target, gain_k, psi):
    """f = -k Im(<target|psi> <psi|H1|target>), with h1_target = H1|target>.

    Evaluated through the same functional rows as simulate_loop, so a user
    law built on it sees the bits of the built-in feedback law.
    """
    a, c = np.dot(_functionals(target, h1_target), psi).tolist()
    return _feedback(a, c, gain_k)


def feedback_and_derivatives(h0, h1, target, h1_target, gain_k, psi):
    """Feedback field plus its first two time derivatives along the closed loop."""
    rows = _functionals(target, h1_target, _taylor_operators(h0, h1))
    return _taylor(np.dot(rows, psi).tolist(), gain_k)


def _powers(r, n):
    """R^1..R^n stacked, by doubling."""
    powers = np.empty((n,) + r.shape, dtype=np.complex128)
    powers[0] = r
    have = 1
    while have < n:
        k = min(have, n - have)
        np.matmul(powers[:k], powers[have - 1], out=powers[have : have + k])
        have += k
    return powers


def simulate_loop(h0, h1, target, h1_target, gain_k, psi0, n_steps, dt, law, drift_tol):
    """Fixed-step closed-loop integration under one compiled field law.

    law is an array of the n_steps + 1 applied fields (open loop), a
    Feedback, PastFeedback, TaylorFeedback or BangBang record, or a callable
    field(t, psi). The field is sampled at each hold start and held across
    the hold. Returns (states, fields, bad_step); bad_step is the first step
    whose pre-renormalization norm drift exceeds drift_tol, or -1.
    """
    dim = psi0.shape[0]
    states = np.empty((n_steps + 1, dim), dtype=np.complex128)
    states[0] = psi0
    taylor = isinstance(law, TaylorFeedback)
    past = isinstance(law, PastFeedback)
    bang = isinstance(law, BangBang)
    open_loop = isinstance(law, np.ndarray)
    user = law if callable(law) else None
    every = not (open_loop or bang)  # the law reads the state at every step
    m = rk4_matrices(h0, h1, dt).reshape(5, dim * dim)
    rows = _functionals(target, h1_target, _taylor_operators(h0, h1) if taylor else ())
    big = np.vstack([m.reshape(5 * dim, dim), rows])
    z = np.empty(big.shape[0], dtype=np.complex128)
    # Real views: a real coefficient row contracts the M_k psi as one dgemv.
    zk = z[: 5 * dim].view(np.float64).reshape(5, 2 * dim)
    overlaps = z[5 * dim :]
    nxt = np.empty(dim, dtype=np.complex128)
    nxt_r = nxt.view(np.float64)
    mono = np.ones(5)  # [1, f, f^2, f^3, f^4], as _monomials(f)
    if open_loop:
        fields = np.array(law, dtype=np.float64)
        # Hold ends: every change of the applied value, and the last step.
        changes = np.flatnonzero(fields[1:n_steps] != fields[: n_steps - 1]) + 1
        ends = np.append(changes, n_steps).tolist()
    else:
        fields = np.zeros(n_steps + 1)
    stride = law.stride if bang else 1
    tau = law.tau if taylor else 0.0
    delay_steps = law.delay_steps if past else 0
    raw = deque(maxlen=delay_steps + 1)  # raw feedback of the last delay_steps + 1 steps
    dot, divide, sqrt = np.dot, np.divide, math.sqrt
    held_f, powers = None, ()  # the last long hold's f and R(f)^1..R(f)^L
    amp = 0.0
    i = run = 0
    psi = states[0]
    with np.errstate(all="ignore"):
        while True:
            if every:
                dot(big, psi, out=z)
                if taylor:
                    fv, df, d2f = _taylor(overlaps.tolist(), gain_k)
                    f = fv - df * tau + 0.5 * d2f * tau * tau
                elif user is not None:
                    f = float(user(i * dt, psi))
                else:
                    a, c = overlaps.tolist()
                    f = -gain_k * (a * c.conjugate()).imag  # _feedback(a, c, gain_k)
                    if past:
                        raw.append(f)
                        f = raw[0] if i >= delay_steps else 0.0
                fields[i] = f
                if i == n_steps:
                    return states, fields, -1
            else:
                if bang and i % stride == 0:
                    dot(big, psi, out=z)
                    a, c = overlaps.tolist()
                    amp = bang_quantize(_feedback(a, c, gain_k), law.f0, law.deadband)
                if i == n_steps:
                    if bang:
                        fields[i] = amp
                    return states, fields, -1
                if bang:
                    length = min(stride - i % stride, BLOCK_CAP, n_steps - i)
                    fields[i : i + length] = amp
                else:
                    while ends[run] <= i:
                        run += 1
                    length = min(ends[run] - i, BLOCK_CAP)
                f = float(fields[i])
                if length > 1:
                    if not (f == held_f and len(powers) >= length):
                        powers = _powers((_monomials(f) @ m).reshape(dim, dim), length)
                        held_f = f
                    block = powers[:length] @ psi
                    norms = np.sqrt((block * block.conj()).real.sum(axis=1))
                    prev = np.concatenate(([1.0], norms[:-1]))
                    bad = np.flatnonzero(~(np.abs(norms / prev - 1.0) <= drift_tol))
                    n_ok = int(bad[0]) if len(bad) else length
                    divide(block[:n_ok], norms[:n_ok, None], out=states[i + 1 : i + 1 + n_ok])
                    if len(bad):
                        return states, fields, i + n_ok
                    psi = states[i + length]
                    i += length
                    continue
                if not bang or i % stride:  # else the sample just loaded z
                    dot(big, psi, out=z)
            # A one-step hold: z = big @ psi is loaded.
            f2 = f * f
            mono[1] = f
            mono[2] = f2
            mono[3] = f2 * f
            mono[4] = f2 * f2
            dot(mono, zk, out=nxt_r)
            nrm = sqrt(nxt_r.dot(nxt_r))
            psi = states[i + 1]
            divide(nxt, nrm if nrm > 0.0 else 1.0, out=psi)
            if not (abs(nrm - 1.0) <= drift_tol):  # catches NaN as well
                return states, fields, i
            i += 1
