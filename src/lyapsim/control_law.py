"""Lyapunov feedback machinery.

The distance function is V(psi) = 1 - |<psi|target>|^2 and the synthesized
field f = -k Im(<target|psi><psi|H1|target>) makes dV/dt = -(2/k) f^2 <= 0
along the closed loop; the target and gain are the ControlSystem's. Also
provides the analytic field derivatives used by the delay expansion, the
critical-point classifier on the projector A = I - |target><target|, and the
spectral precondition check for the invariant set to reduce to the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, linalg
from .dynamics import ControlSystem, FieldLaw
from .errors import InputError

#: Classification labels for critical points of V.
MINIMUM = "minimum"
MAXIMUM = "maximum"
SADDLE = "saddle"
DEGENERATE = "degenerate"

#: Default tolerance for spectral gaps and couplings in check_convergence.
DEFAULT_COUPLING_TOL = 1e-9


@dataclass
class ConvergenceReport:
    """Spectral preconditions for the invariant set to reduce to the target."""

    spectrum_nondegenerate: bool
    min_spectral_gap: float
    couplings: np.ndarray
    invariant_set_trivial: bool


def _check_dim(psi: np.ndarray, dim: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (dim,):
        raise InputError(f"state shape {psi.shape} does not match dimension {dim}")
    return psi


def lyapunov_value(psi: np.ndarray, target: np.ndarray) -> float:
    """V(psi) = 1 - |<psi|target>|^2 = 1 - F, in [0, 1]."""
    return 1.0 - fidelity(psi, target)


def fidelity(psi: np.ndarray, target: np.ndarray) -> float:
    """F(psi) = |<target|psi>|^2 = 1 - V, for a unit-norm target."""
    target = linalg.as_state(target)
    psi = _check_dim(psi, target.shape[0])
    return abs(np.vdot(target, psi)) ** 2


def control_field(psi: np.ndarray, sys: ControlSystem) -> float:
    """Feedback field f = -k Im(<target|psi><psi|H1|target>)."""
    psi = _check_dim(psi, sys.dim)
    return float(_kernels.feedback_field(sys.target, sys.h1_target(), sys.gain_k, psi))


def lyapunov_rate(psi: np.ndarray, sys: ControlSystem, f: float) -> float:
    """Analytic dV/dt for an applied field f at state psi.

    dV/dt = 2 f Im(<target|psi><psi|H1|target>); with f from control_field
    this equals -(2/k) f^2.
    """
    psi = _check_dim(psi, sys.dim)
    a = np.vdot(sys.target, psi)
    b = np.vdot(psi, sys.h1_target())
    return 2.0 * float(f) * (a * b).imag


def field_derivatives(psi: np.ndarray, sys: ControlSystem) -> tuple[float, float]:
    """First and second time derivatives of the feedback field along the flow.

    Uses H = H0 + f H1 with f re-synthesized at psi, including the Hdot
    contribution to the second derivative (the field enters H).
    """
    psi = _check_dim(psi, sys.dim)
    _, df, d2f = _kernels.feedback_and_derivatives(
        sys.h0, sys.h1, sys.target, sys.h1_target(), sys.gain_k, psi
    )
    return float(df), float(d2f)


class _RawFeedbackLaw(FieldLaw):
    """The undistorted closed loop: apply control_field at the current state."""

    def _compile(self, sys, psi0, n_steps, dt):
        return _kernels.Feedback()


def feedback_law(sys: ControlSystem) -> FieldLaw:
    """FieldLaw applying the raw feedback field, undistorted.

    The law is closed loop: it does not read sys and acts on the system
    simulate is given.
    """
    return _RawFeedbackLaw()


def classify_critical_point(a_eigenvalues, c: int, tol: float = 1e-12) -> str:
    """Classify the critical point at eigenvalue index c by eigenvalue ordering.

    Strictly smallest -> minimum, strictly largest -> maximum, values on both
    sides -> saddle. A tie within tol that blocks a strict min/max verdict is
    reported as "degenerate" rather than forced into a label.
    """
    values = np.asarray(a_eigenvalues, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise InputError("need a 1-d list of at least two eigenvalues")
    if not 0 <= c < len(values):
        raise InputError(f"index {c} out of range for {len(values)} eigenvalues")
    others = np.delete(values, c)
    above = others > values[c] + tol
    below = others < values[c] - tol
    if above.any() and below.any():
        return SADDLE
    if above.all():
        return MINIMUM
    if below.all():
        return MAXIMUM
    return DEGENERATE


def check_convergence(sys: ControlSystem, tol: float = DEFAULT_COUPLING_TOL) -> ConvergenceReport:
    """Evaluate the spectral preconditions for convergence to the target.

    The invariant set reduces to the target exactly when the H0 spectrum is
    nondegenerate and every other H0 eigenstate couples to the target through
    H1; this reports both conditions rather than raising.
    """
    evals, evecs = linalg.hermitian_eigen(sys.h0)
    gaps = np.diff(evals)
    min_gap = float(np.min(gaps))
    nondegenerate = min_gap > tol

    overlaps = np.abs(evecs.conj().T @ sys.target)
    target_idx = int(np.argmax(overlaps))
    h1_target = sys.h1_target()
    couplings = np.array(
        [
            abs(np.vdot(evecs[:, j], h1_target))
            for j in range(sys.dim)
            if j != target_idx
        ]
    )
    trivial = bool(nondegenerate and np.all(couplings > tol))
    return ConvergenceReport(
        spectrum_nondegenerate=bool(nondegenerate),
        min_spectral_gap=min_gap,
        couplings=couplings,
        invariant_set_trivial=trivial,
    )
