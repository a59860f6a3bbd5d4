import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapsim import (
    InputError,
    check_convergence,
    classify_critical_point,
    control_field,
    feedback_law,
    field_derivatives,
    lyapunov_rate,
    lyapunov_value,
    simulate,
)
from lyapsim.control_law import DEGENERATE, MAXIMUM, MINIMUM, SADDLE

from helpers import coupled_rk4_step, eq9_field, projector, random_system, random_unit_complex


def basis(i, dim=5):
    e = np.zeros(dim, dtype=np.complex128)
    e[i] = 1.0
    return e


class TestLyapunovValue:
    def test_target_state(self, sys5):
        assert lyapunov_value(sys5.target, sys5.target) == 0.0

    def test_orthogonal_state(self, sys5):
        assert lyapunov_value(basis(3), sys5.target) == 1.0

    def test_equal_superposition(self, sys5):
        psi = (basis(0) + basis(1)) / np.sqrt(2)
        assert lyapunov_value(psi, sys5.target) == pytest.approx(0.5, abs=1e-15)

    def test_matches_projector_quadratic_form(self, sys5, rng):
        a = projector(sys5.target)
        assert np.max(np.abs(a - a.conj().T)) <= 1e-15
        assert np.max(np.abs(a @ a - a)) <= 1e-12
        assert np.allclose(np.sort(np.linalg.eigvalsh(a)), [0, 1, 1, 1, 1], atol=1e-12)
        for _ in range(20):
            psi = random_unit_complex(rng, 5)
            direct = lyapunov_value(psi, sys5.target)
            quad = np.vdot(psi, a @ psi).real
            assert direct == pytest.approx(quad, abs=1e-12)

    def test_dimension_mismatch(self, sys5):
        with pytest.raises(InputError):
            lyapunov_value(np.ones(4) / 2, sys5.target)
        with pytest.raises(InputError):  # the target must be a unit vector
            lyapunov_value(sys5.target, 2 * sys5.target)


class TestControlField:
    def test_zero_at_target(self, sys5):
        assert control_field(sys5.target, sys5) == 0.0

    def test_frozen_complex_value(self, sys5):
        # <g|psi> = 1/sqrt2, <psi|H1|g> = -i/sqrt2, Im(-i/2) = -1/2, f = +1/2
        psi = np.array([1.0, 1.0j, 0, 0, 0]) / np.sqrt(2)
        assert control_field(psi, sys5) == pytest.approx(0.5, abs=1e-15)

    def test_componentwise_formula(self, sys5, rng):
        for _ in range(50):
            psi = random_unit_complex(rng, 5)
            assert control_field(psi, sys5) == pytest.approx(eq9_field(psi), abs=1e-15)
        real_psi = np.abs(random_unit_complex(rng, 5))
        real_psi /= np.linalg.norm(real_psi)
        assert control_field(real_psi.astype(np.complex128), sys5) == eq9_field(real_psi)

    def test_gain_linearity(self, sys5, rng):
        doubled = dataclasses.replace(sys5, gain_k=2.0)
        for _ in range(20):
            psi = random_unit_complex(rng, 5)
            assert control_field(psi, doubled) == 2.0 * control_field(psi, sys5)


class TestLyapunovRate:
    def test_zero_field(self, sys5, rng):
        psi = random_unit_complex(rng, 5)
        assert lyapunov_rate(psi, sys5, 0.0) == 0.0

    def test_nonpositive_under_feedback(self, sys5, rng):
        for _ in range(1000):
            psi = random_unit_complex(rng, 5)
            f = control_field(psi, sys5)
            assert lyapunov_rate(psi, sys5, f) <= 0.0

    def test_closed_form_under_feedback(self, sys5, rng):
        for _ in range(20):
            psi = random_unit_complex(rng, 5)
            f = control_field(psi, sys5)
            assert lyapunov_rate(psi, sys5, f) == pytest.approx(-2.0 * f * f / sys5.gain_k, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, 8),
        gain_k=st.floats(0.01, 100.0),
        level=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_descent_on_random_systems(self, dim, gain_k, level, seed):
        # Random Hermitian H0 and H1, the target one of H0's eigenvectors.
        rng = np.random.default_rng(seed)
        sys = random_system(rng, dim, level, gain_k)
        psi = random_unit_complex(rng, dim)
        f = control_field(psi, sys)
        rate = lyapunov_rate(psi, sys, f)
        assert rate == pytest.approx(-2.0 * f * f / gain_k, rel=1e-12, abs=1e-15)
        assert rate <= 0.0

    def test_matches_finite_difference(self, sys5, rng):
        h = 1e-4
        for _ in range(20):
            psi = random_unit_complex(rng, 5)
            f = control_field(psi, sys5)
            vp = lyapunov_value(coupled_rk4_step(sys5, psi, h), sys5.target)
            vm = lyapunov_value(coupled_rk4_step(sys5, psi, -h), sys5.target)
            fd = (vp - vm) / (2 * h)
            an = lyapunov_rate(psi, sys5, f)
            assert fd == pytest.approx(an, rel=1e-4, abs=1e-10)


class TestFieldDerivatives:
    def test_equilibrium(self, sys5):
        df, _ = field_derivatives(sys5.target, sys5)
        assert df == pytest.approx(0.0, abs=1e-15)

    def test_first_derivative_against_finite_difference(self, sys5, rng):
        h = 1e-4
        for _ in range(100):
            psi = random_unit_complex(rng, 5)
            fp = control_field(coupled_rk4_step(sys5, psi, h), sys5)
            fm = control_field(coupled_rk4_step(sys5, psi, -h), sys5)
            fd = (fp - fm) / (2 * h)
            an, _ = field_derivatives(psi, sys5)
            assert abs(fd - an) <= 1e-3 * max(abs(an), 1e-6)

    def test_second_derivative_against_finite_difference(self, sys5, rng):
        h = 1e-4
        for _ in range(100):
            psi = random_unit_complex(rng, 5)
            f0 = control_field(psi, sys5)
            fp = control_field(coupled_rk4_step(sys5, psi, h), sys5)
            fm = control_field(coupled_rk4_step(sys5, psi, -h), sys5)
            fd = (fp - 2 * f0 + fm) / h**2
            _, an = field_derivatives(psi, sys5)
            assert abs(fd - an) <= 1e-2 * max(abs(an), 1e-5)


class TestClassifyCriticalPoint:
    def test_projector_spectrum(self):
        values = [0.0, 1.0, 1.0, 1.0, 1.0]
        assert classify_critical_point(values, 0) == MINIMUM
        assert classify_critical_point(values, 1) == DEGENERATE

    def test_saddle_and_extremes(self):
        values = [0.0, 0.3, 0.9]
        assert classify_critical_point(values, 0) == MINIMUM
        assert classify_critical_point(values, 1) == SADDLE
        assert classify_critical_point(values, 2) == MAXIMUM

    def test_tie_with_both_sides_is_saddle(self):
        assert classify_critical_point([0.0, 0.5, 0.5, 1.0], 1) == SADDLE

    def test_index_validation(self):
        with pytest.raises(InputError):
            classify_critical_point([0.0, 1.0], 5)

    def test_brute_force_sign_patterns(self, sys5, rng):
        for c in range(5):
            psi_c = basis(c)
            deltas = []
            for _ in range(200):
                pert = psi_c + 1e-3 * random_unit_complex(rng, 5)
                pert = pert / np.linalg.norm(pert)
                deltas.append(lyapunov_value(pert, sys5.target) - lyapunov_value(psi_c, sys5.target))
            deltas = np.array(deltas)
            if c == 0:  # the target: V minimal
                assert np.all(deltas >= -1e-10)
            else:  # tied-largest eigenvalue: V maximal up to flat directions
                assert np.all(deltas <= 1e-10)


class TestCheckConvergence:
    def test_preset_is_trivial(self, sys5):
        report = check_convergence(sys5)
        assert report.spectrum_nondegenerate
        assert report.min_spectral_gap == pytest.approx(0.1, abs=1e-12)
        assert np.allclose(report.couplings, 1.0, atol=1e-12)
        assert len(report.couplings) == 4
        assert report.invariant_set_trivial

    def test_missing_coupling_detected(self, sys5):
        h1 = sys5.h1.copy()
        h1[0, 2] = 0.0
        h1[2, 0] = 0.0
        broken = dataclasses.replace(sys5, h1=h1)
        report = check_convergence(broken)
        assert report.spectrum_nondegenerate
        assert not report.invariant_set_trivial

    def test_degenerate_spectrum_detected(self, sys5):
        degen = dataclasses.replace(sys5, h0=np.eye(5, dtype=np.complex128), target=basis(0))
        report = check_convergence(degen)
        assert not report.spectrum_nondegenerate
        assert not report.invariant_set_trivial


class TestClosedLoopDescent:
    def test_v_forward_differences(self, sys5):
        psi0 = random_unit_complex(np.random.default_rng(11), 5)
        traj = simulate(sys5, feedback_law(sys5), psi0, 100.0, 0.01)
        assert np.max(np.diff(traj.lyapunov)) <= 1e-8
