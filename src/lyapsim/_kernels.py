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

A one-step hold is the matvec above. A longer hold of L steps (an open-loop
run of equal values, bang-bang between re-quantizations) runs in the
eigenbasis of H(f) = H0 + f H1 = V diag(lam) V^dag. R(f) is the RK4
polynomial in -i dt H(f), so R(f)^j = V diag(mu^j) V^dag exactly, with
mu = 1 + x + x^2/2 + x^3/6 + x^4/24 at x = -i dt lam: still RK4, not the
exponential. One eigendecomposition per held value and a cumprod give
mu^1..mu^L, and the hold's states are the normalized rows of one
(L x d)(d x d) product; the first step whose norm ratio to the previous row
fails the drift guard is reported as in a one-step hold. L is capped at
BLOCK_CAP, so the partition depends only on the law and a table holds at
most BLOCK_CAP * d numbers.

The states are written to a ring of rows. A hold writes its rows after the
current state's, so it needs L free rows; when fewer are left, the ring's
rows before the current state are folded into F = |<target|row>|^2 and the
current state moves to row 0. A ring of at least BLOCK_CAP + 1 rows
therefore never wraps inside a hold. A ring of all n_steps + 1 rows never
fills and keeps every state, folded once at the end. `fidelity` sums
each row on its own, so F is the same bits whichever rows a fold takes.

The classic four-stage `rk4_step` is kept as the reference the polynomial
map is tested against.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

#: Most steps propagated as one hold in the eigenbasis of H(f).
BLOCK_CAP = 1024

#: Rows of the ring a run that keeps no states writes into; at least
#: BLOCK_CAP + 1, so a hold never wraps.
RING_ROWS = 2 * BLOCK_CAP


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


def fidelity(rows, target):
    """F = |<target|row>|^2 of each row.

    einsum sums each row's products on its own, in component order, so a
    row's F does not depend on the rows beside it, and a basis target's F
    is |row_k|^2 to the bit.
    """
    return np.abs(np.einsum("ij,j->i", rows, target.conj())) ** 2


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


def simulate_loop(
    h0, h1, target, h1_target, gain_k, psi0, n_steps, dt, law, drift_tol, ring_rows=None
):
    """Fixed-step closed-loop integration under one compiled field law.

    law is an array of the n_steps + 1 applied fields (open loop), a
    Feedback, PastFeedback, TaylorFeedback or BangBang record, or a callable
    field(t, psi). The field is sampled at each hold start and held across
    the hold. The states go through a ring of ring_rows rows (at least
    BLOCK_CAP + 1), or of all n_steps + 1 when ring_rows is None.

    Returns (states, fields, fidelity, bad_step). states is every state when
    ring_rows is None, else the first and the last; bad_step is the first
    step whose pre-renormalization norm drift exceeds drift_tol, or -1.
    fidelity holds F of every state up to bad_step.
    """
    dim = psi0.shape[0]
    n_rows = n_steps + 1 if ring_rows is None else min(ring_rows, n_steps + 1)
    ring = np.empty((n_rows, dim), dtype=np.complex128)
    ring[0] = psi0
    ring_r = ring.view(np.float64)
    fid = np.empty(n_steps + 1)
    taylor = isinstance(law, TaylorFeedback)
    past = isinstance(law, PastFeedback)
    bang = isinstance(law, BangBang)
    open_loop = isinstance(law, np.ndarray)
    user = law if callable(law) else None
    every = not (open_loop or bang)  # the law reads the state at every step
    rows = _functionals(target, h1_target, _taylor_operators(h0, h1) if taylor else ())
    big = np.vstack([rk4_matrices(h0, h1, dt).reshape(5 * dim, dim), rows])
    z = np.empty(big.shape[0], dtype=np.complex128)
    # Real views: a real coefficient row contracts the M_k psi as one dgemv.
    zk = z[: 5 * dim].view(np.float64).reshape(5, 2 * dim)
    overlaps = z[5 * dim :]
    nxt_r = np.empty(2 * dim)
    mono = np.ones(5)  # [1, f, f^2, f^3, f^4]
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
    multiply, sqrt = np.multiply, math.sqrt
    held = {}  # the tables of the last long hold's f, or of bang-bang's levels
    amp = 0.0
    i = run = 0
    r = 0  # the ring row of step i
    bad_step = -1
    psi = ring[0]

    def fold(i, r):
        """Fold the rows before row r into F; step i moves from row r to row 0."""
        fid[i - r : i] = fidelity(ring[:r], target)
        ring[0] = ring[r]
        return ring[0]

    with np.errstate(all="ignore"):
        while True:
            if every:
                big.dot(psi, z)
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
                    break
                if r + 1 == n_rows:
                    psi = fold(i, r)
                    r = 0
            else:
                if bang and i % stride == 0:
                    big.dot(psi, z)
                    a, c = overlaps.tolist()
                    amp = bang_quantize(_feedback(a, c, gain_k), law.f0, law.deadband)
                if i == n_steps:
                    if bang:
                        fields[i] = amp
                    break
                if bang:
                    length = min(stride - i % stride, BLOCK_CAP, n_steps - i)
                    fields[i : i + length] = amp
                else:
                    while ends[run] <= i:
                        run += 1
                    length = min(ends[run] - i, BLOCK_CAP)
                f = float(fields[i])
                if r + length >= n_rows:  # too few free rows for the hold
                    psi = fold(i, r)
                    r = 0
                if length > 1:
                    hold = held.get(f)
                    if hold is None or len(hold[2]) < length:
                        h = h0 + f * h1
                        if not np.isfinite(h).all():  # eigh raises on it
                            bad_step = i
                            break
                        lam, v = np.linalg.eigh(h)
                        x = (-1j * dt) * lam
                        mu = 1.0 + x * (1.0 + x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0))))
                        if not bang:
                            held.clear()
                        table_rows = min(stride, BLOCK_CAP) if bang else length
                        table = np.cumprod(np.broadcast_to(mu, (table_rows, dim)), axis=0)
                        hold = held[f] = (v.conj(), v.T, table)
                    vc, vt, table = hold  # conj(V), V^T and mu^1..mu^table_rows
                    block = (table[:length] * psi.dot(vc)) @ vt
                    block_r = block.view(np.float64)
                    norms = np.sqrt(np.einsum("ij,ij->i", block_r, block_r))
                    prev = np.concatenate(([1.0], norms[:-1]))
                    bad = np.flatnonzero(~(np.abs(norms / prev - 1.0) <= drift_tol))
                    n_ok = int(bad[0]) if len(bad) else length
                    np.divide(block[:n_ok], norms[:n_ok, None], out=ring[r + 1 : r + 1 + n_ok])
                    i += n_ok
                    r += n_ok
                    if len(bad):
                        bad_step = i
                        break
                    psi = ring[r]
                    continue
                if not bang or i % stride:  # else the sample just loaded z
                    big.dot(psi, z)
            # A one-step hold: z = big @ psi is loaded.
            f2 = f * f
            mono[1] = f
            mono[2] = f2
            mono[3] = f2 * f
            mono[4] = f2 * f2
            mono.dot(zk, nxt_r)
            nrm = sqrt(nxt_r.dot(nxt_r))
            # The bits of the complex nxt / nrm, but for the sign of a zero real part.
            multiply(nxt_r, 1.0 / nrm if nrm > 0.0 else 1.0, out=ring_r[r + 1])
            if not (abs(nrm - 1.0) <= drift_tol):  # catches NaN as well
                bad_step = i
                break
            i += 1
            r += 1
            psi = ring[r]
    fid[i - r : i + 1] = fidelity(ring[: r + 1], target)
    states = ring if ring_rows is None else np.array([psi0, ring[r]], dtype=np.complex128)
    return states, fields, fid, bad_step
