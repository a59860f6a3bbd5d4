"""Dense complex linear algebra for small state spaces.

Everything operates on plain numpy arrays: complex128 vectors for states and
complex128 square matrices for Hermitian operators. The eigensolver behind
the exact propagator is LAPACK's Hermitian solver through np.linalg.eigh.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError

HERMITICITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-9


def as_vector(entries) -> np.ndarray:
    """Validate and return a complex amplitude vector (dim >= 2, finite)."""
    v = np.ascontiguousarray(entries, dtype=np.complex128)
    if v.ndim != 1:
        raise InputError(f"expected a 1-d vector, got shape {v.shape}")
    if v.shape[0] < 2:
        raise InputError(f"vector dimension must be >= 2, got {v.shape[0]}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise InputError("vector has non-finite entries")
    return v


def as_state(entries) -> np.ndarray:
    """Validate a unit-norm state vector (|norm - 1| <= 1e-9)."""
    v = as_vector(entries)
    nrm = norm(v)
    if abs(nrm - 1.0) > NORMALIZATION_TOL:
        raise InputError(f"state vector is not normalized: |psi| = {nrm!r}")
    return v


def as_hermitian(matrix) -> np.ndarray:
    """Validate a Hermitian matrix (entrywise equal to its adjoint within 1e-12)."""
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise InputError("matrix has non-finite entries")
    dev = np.max(np.abs(m - m.conj().T))
    if dev > HERMITICITY_TOL:
        raise InputError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
    return m


def norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def hermitian_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a validated Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as the columns of a unitary matrix, so that
    H = V diag(w) V^dag.
    """
    h = as_hermitian(matrix)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver did not converge: {exc}") from exc
    return w, v


def expm_apply(h: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    """Exact propagator action e^{-iHt}|v> via eigendecomposition."""
    h = np.asarray(h)
    v = np.asarray(v)
    if h.shape[0] != v.shape[0]:
        raise InputError(f"dimension mismatch: {h.shape} vs {v.shape}")
    w, vecs = hermitian_eigen(h)
    coeffs = vecs.conj().T @ v
    return vecs @ (np.exp(-1j * w * t) * coeffs)
