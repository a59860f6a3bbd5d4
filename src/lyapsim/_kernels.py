"""Hot numeric kernels for the closed-loop integrator.

With the field f held over a step, the classic RK4 map of
dpsi/dt = -i (H0 + f H1) psi is the degree-4 Taylor polynomial of
exp(B0 + f B1), B = -i dt H, and so exactly a polynomial in f:

    R(f) = sum_{k<=4} f^k M_k.

`rk4_matrices` builds the M_k once per (system, dt). A `Stepper` stacks them
with the linear functionals the field laws read (t^dag and w^dag, where t is
the target and w = H1 t; for the Taylor law also t^dag X and w^dag X for
X in H0, H1, H0^2, H0 H1 + H1 H0, H1^2) into one matrix, so a single matvec
z = big @ psi per step yields everything: the overlaps that give the field
and the next state [1, f, f^2, f^3, f^4] @ z[:5d].reshape(5, d), which is
then renormalized under the drift guard.

Where the field is known to stay constant for L > 1 steps (replay runs of
equal values, bang-bang between re-quantizations), `simulate_loop` builds
R(f) once, takes the powers R^1..R^L by doubling, and gets the block's states
as the normalized rows of powers @ psi. Each step's drift is the ratio of
consecutive norms, so the first step that fails the guard is reported as in
the per-step path. L is capped at BLOCK_CAP: the partition depends only on
the law, and a block holds at most BLOCK_CAP * d^2 complex numbers.

The feedback, history and Taylor laws run in `_per_step`, which inlines
`Stepper.load` and `Stepper.advance` (locals for the stepper's buffers, one
reused monomial array) with the same numpy calls in the same order, so its
states are bitwise those of the generic path's Stepper calls.

The classic four-stage `rk4_step` is kept as the reference the polynomial
map is tested against.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

# Applied-field law codes for simulate_loop.
LAW_FEEDBACK = 0
LAW_DELAY_HISTORY = 1
LAW_REPLAY = 2
LAW_TAYLOR = 3
LAW_BANG = 4

#: Most steps propagated as one held-field block.
BLOCK_CAP = 64


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

    Evaluated through the same functional rows as the Stepper, so both
    integrator paths see the same bits.
    """
    a, c = np.dot(_functionals(target, h1_target), psi).tolist()
    return _feedback(a, c, gain_k)


def field_and_derivatives(h0, h1, target, h1_target, gain_k, psi):
    """Feedback field plus its first two time derivatives along the closed loop."""
    rows = _functionals(target, h1_target, _taylor_operators(h0, h1))
    return _taylor(np.dot(rows, psi).tolist(), gain_k)


class Stepper:
    """RK4 steps of one (system, dt) at one matvec each; see the module doc."""

    def __init__(self, h0, h1, target, h1_target, dt, taylor=False):
        dim = h0.shape[0]
        self._m = rk4_matrices(h0, h1, dt).reshape(5, dim * dim)
        rows = _functionals(target, h1_target, _taylor_operators(h0, h1) if taylor else ())
        self._big = np.vstack([self._m.reshape(5 * dim, dim), rows])
        self._z = np.empty(self._big.shape[0], dtype=np.complex128)
        # Real views: a real coefficient row contracts the M_k psi as one dgemv.
        self._zk = self._z[: 5 * dim].view(np.float64).reshape(5, 2 * dim)
        self._overlaps = self._z[5 * dim :]
        self._next = np.empty(dim, dtype=np.complex128)
        self._next_r = self._next.view(np.float64)
        self._held = None  # (f, powers R^1..R^L) of the last block

    def load(self, psi):
        """z = big @ psi; returns the functionals' values as Python complexes."""
        np.dot(self._big, psi, out=self._z)
        return self._overlaps.tolist()

    def advance(self, f, out):
        """Write the renormalized R(f) psi of the loaded psi to out; return the drift."""
        np.dot(_monomials(f), self._zk, out=self._next_r)
        nrm = math.sqrt(self._next_r.dot(self._next_r))
        np.divide(self._next, nrm if nrm > 0.0 else 1.0, out=out)
        return abs(nrm - 1.0)

    def _powers(self, f, n):
        """R(f)^1..R(f)^n stacked, reusing the last block's when f repeats."""
        if self._held is not None and self._held[0] == f and len(self._held[1]) >= n:
            return self._held[1][:n]
        dim = len(self._next)
        powers = np.empty((n, dim, dim), dtype=np.complex128)
        powers[0] = (_monomials(f) @ self._m).reshape(dim, dim)
        have = 1
        while have < n:
            k = min(have, n - have)
            np.matmul(powers[:k], powers[have - 1], out=powers[have : have + k])
            have += k
        self._held = (f, powers)
        return powers

    def block(self, f, psi, out, drift_tol):
        """Advance len(out) steps from psi under held f, writing out[l] = psi_{l+1}.

        Returns the index of the first step whose drift fails the guard
        (out is written only before it), or -1.
        """
        raw = self._powers(f, len(out)) @ psi
        norms = np.sqrt((raw * raw.conj()).real.sum(axis=1))
        prev = np.concatenate(([1.0], norms[:-1]))
        bad = np.flatnonzero(~(np.abs(norms / prev - 1.0) <= drift_tol))
        n_ok = int(bad[0]) if len(bad) else len(out)
        np.divide(raw[:n_ok], norms[:n_ok, None], out=out[:n_ok])
        return n_ok if len(bad) else -1


def simulate_loop(
    h0,
    h1,
    target,
    h1_target,
    gain_k,
    psi0,
    n_steps,
    dt,
    law_kind,
    delay_steps,
    tau,
    f_ref,
    stride,
    f0,
    deadband,
    drift_tol,
):
    """Fixed-step closed-loop integration for the built-in field laws.

    The field is sampled at each step start (zero-order hold across the
    step); the bang-bang law re-quantizes only every `stride` steps.
    Returns (states, fields, status, bad_step); status 1 flags a
    pre-renormalization norm drift above drift_tol at step bad_step.
    """
    dim = psi0.shape[0]
    states = np.empty((n_steps + 1, dim), dtype=np.complex128)
    fields = np.zeros(n_steps + 1)
    states[0] = psi0
    stepper = Stepper(h0, h1, target, h1_target, dt, taylor=law_kind == LAW_TAYLOR)
    with np.errstate(all="ignore"):
        if law_kind in (LAW_REPLAY, LAW_BANG):
            bad_step = _held_blocks(
                stepper, states, fields, gain_k, law_kind, delay_steps, f_ref,
                stride, f0, deadband, drift_tol,
            )
        else:
            bad_step = _per_step(
                stepper, states, fields, gain_k, law_kind, delay_steps, tau, drift_tol
            )
    return states, fields, int(bad_step >= 0), bad_step


def _per_step(stepper, states, fields, gain_k, law_kind, delay_steps, tau, drift_tol):
    """Feedback, history and Taylor laws: Stepper.load + advance, inlined."""
    n_steps = len(fields) - 1
    big, z, zk, overlaps = stepper._big, stepper._z, stepper._zk, stepper._overlaps
    nxt, nxt_r = stepper._next, stepper._next_r
    dot, divide, sqrt = np.dot, np.divide, math.sqrt
    mono = np.ones(5)  # [1, f, f^2, f^3, f^4], as _monomials(f)
    taylor = law_kind == LAW_TAYLOR
    history = law_kind == LAW_DELAY_HISTORY
    raw = deque(maxlen=delay_steps + 1)  # raw feedback of the last delay_steps + 1 steps
    psi = states[0]
    for i in range(n_steps + 1):
        dot(big, psi, out=z)
        if taylor:
            fv, df, d2f = _taylor(overlaps.tolist(), gain_k)
            f = fv - df * tau + 0.5 * d2f * tau * tau
        else:
            a, c = overlaps.tolist()
            f = -gain_k * (a * c.conjugate()).imag  # _feedback(a, c, gain_k)
            if history:
                raw.append(f)
                f = raw[0] if i >= delay_steps else 0.0
        fields[i] = f
        if i == n_steps:
            break
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
            return i
    return -1


def _held_blocks(
    stepper, states, fields, gain_k, law_kind, delay_steps, f_ref, stride, f0, deadband,
    drift_tol,
):
    """Replay and bang-bang laws: blocks of steps under one held field value."""
    n_steps = len(fields) - 1

    def quantized(psi):
        z = stepper.load(psi)
        return bang_quantize(_feedback(z[0], z[1], gain_k), f0, deadband)

    if law_kind == LAW_REPLAY:
        lo = max(delay_steps, 0)
        hi = min(n_steps + 1, delay_steps + len(f_ref))
        if hi > lo:
            fields[lo:hi] = f_ref[lo - delay_steps : hi - delay_steps]
        # Block starts: every change of the applied value.
        changes = np.flatnonzero(fields[1:n_steps] != fields[: n_steps - 1]) + 1
        run_ends = np.append(changes, n_steps).tolist()
    amp = 0.0
    i = run = 0
    while i < n_steps:
        if law_kind == LAW_BANG:
            if i % stride == 0:
                amp = quantized(states[i])
            length = min(stride - i % stride, BLOCK_CAP, n_steps - i)
            fields[i : i + length] = amp
        else:
            while run_ends[run] <= i:
                run += 1
            length = min(run_ends[run] - i, BLOCK_CAP)
        f = float(fields[i])
        if length == 1:
            if law_kind != LAW_BANG or i % stride:  # else quantized() just loaded it
                stepper.load(states[i])
            if not (stepper.advance(f, states[i + 1]) <= drift_tol):
                return i
        else:
            bad = stepper.block(f, states[i], states[i + 1 : i + 1 + length], drift_tol)
            if bad >= 0:
                return i + bad
        i += length
    if law_kind == LAW_BANG:
        fields[n_steps] = quantized(states[n_steps]) if n_steps % stride == 0 else amp
    return -1
