import numpy as np
import pytest

from lyapsim import InputError, expm_apply, hermitian_eigen
from lyapsim.linalg import as_hermitian, as_state, as_vector

from helpers import random_hermitian, random_unit_complex


def basis(i, dim=5):
    e = np.zeros(dim, dtype=np.complex128)
    e[i] = 1.0
    return e


class TestHermitianEigen:
    def test_preset_free_hamiltonian(self, sys5):
        evals, evecs = hermitian_eigen(sys5.h0)
        assert np.allclose(evals, [0.2, 0.5, 0.6, 0.8, 1.0], atol=1e-14)
        # eigenvectors are the standard basis vectors, up to phase
        overlap = np.abs(evecs.conj().T @ np.eye(5))
        assert np.allclose(np.sort(overlap, axis=1)[:, -1], 1.0, atol=1e-12)

    def test_identity_is_degenerate(self):
        evals, evecs = hermitian_eigen(np.eye(3))
        assert np.allclose(evals, 1.0)
        assert np.allclose(evecs.conj().T @ evecs, np.eye(3), atol=1e-12)

    def test_reconstruction_random(self, rng):
        h = random_hermitian(rng, 6)
        evals, evecs = hermitian_eigen(h)
        rec = evecs @ np.diag(evals) @ evecs.conj().T
        assert np.max(np.abs(rec - h)) <= 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 12])
    def test_orthonormality_and_reconstruction(self, dim, rng):
        for _ in range(5):
            h = random_hermitian(rng, dim)
            evals, evecs = hermitian_eigen(h)
            assert np.all(np.diff(evals) >= -1e-12)
            assert np.max(np.abs(evecs.conj().T @ evecs - np.eye(dim))) <= 1e-9
            rec = evecs @ np.diag(evals) @ evecs.conj().T
            assert np.max(np.abs(rec - h)) <= 1e-9

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            hermitian_eigen(m)


class TestExpmApply:
    def test_zero_time_is_identity(self, rng):
        h = random_hermitian(rng, 4)
        v = random_unit_complex(rng, 4)
        assert np.allclose(expm_apply(h, 0.0, v), v, atol=1e-12)

    def test_diagonal_phase(self, sys5):
        out = expm_apply(sys5.h0, np.pi, basis(0))
        assert np.allclose(out, np.exp(-0.2j * np.pi) * basis(0), atol=1e-14)

    def test_unitarity(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            v = random_unit_complex(rng, dim)
            t = float(rng.normal()) * 3.0
            out = expm_apply(h, t, v)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_semigroup(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, 5)
            v = random_unit_complex(rng, 5)
            s, t = rng.normal(size=2)
            once = expm_apply(h, s + t, v)
            twice = expm_apply(h, s, expm_apply(h, t, v))
            assert np.max(np.abs(once - twice)) <= 1e-9


class TestValidators:
    def test_vector_too_short(self):
        with pytest.raises(InputError):
            as_vector([1.0])

    def test_vector_non_finite(self):
        with pytest.raises(InputError):
            as_vector([1.0, np.nan])

    def test_state_normalization(self):
        with pytest.raises(InputError):
            as_state([1.0, 1.0])
        as_state(np.array([1.0, 1.0]) / np.sqrt(2))

    def test_hermitian_tolerance(self):
        m = np.eye(3, dtype=np.complex128)
        m[0, 1] = 1e-10
        with pytest.raises(InputError):
            as_hermitian(m)
        m[0, 1] = 1e-13
        as_hermitian(m)
