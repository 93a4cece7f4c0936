import numpy as np
import pytest

from sphereflow import barrier
from sphereflow.errors import DomainError, PreconditionViolation


class TestPhi:
    def test_peak_value_a_pi(self):
        # arctan(1) / pi = 1/4
        assert abs(barrier.phi(0.5, np.pi) - 0.25) < 1e-15

    def test_limit_profile_peak(self):
        assert abs(barrier.phi(0.5, 0.0) - 1.0 / np.pi) < 1e-15

    def test_frozen_point(self):
        # mpmath, 40 digits: atan(sin(pi/4)/pi) = 0.22138970964098582...
        assert abs(barrier.phi(0.25, 1.0) - 0.2213897096409858) < 1e-12

    def test_symmetry_and_endpoints(self):
        z = np.linspace(0.0, 1.0, 501)
        for a in (0.0, 0.5, 3.0):
            v = barrier.phi(z, a)
            assert np.max(np.abs(v - barrier.phi(1.0 - z, a))) < 1e-12
            assert abs(v[0]) < 1e-15 and abs(v[-1]) < 1e-15

    def test_strictly_decreasing_in_a(self):
        z = np.linspace(0.01, 0.99, 99)
        a_grid = [0.0, 0.1, 0.5, 1.0, 2.0, 10.0]
        for a1, a2 in zip(a_grid, a_grid[1:]):
            assert np.all(barrier.phi(z, a2) < barrier.phi(z, a1))

    def test_negative_a_rejected(self):
        with pytest.raises(DomainError):
            barrier.phi(0.5, -1.0)


class TestDerivatives:
    def test_slope_one_at_origin(self):
        for a in (0.1, 1.0, 10.0):
            ev = barrier.phi_derivatives(1e-8, a)
            assert abs(float(ev.phi_prime) - 1.0) < 1e-6

    def test_midpoint(self):
        ev = barrier.phi_derivatives(0.5, 2.0)
        assert abs(float(ev.phi_prime)) < 1e-15
        assert float(ev.phi_double_prime) < 0.0

    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    def test_against_finite_differences(self, a):
        # 5-point centered stencils of phi() as the oracle
        z = np.linspace(1e-3, 1 - 1e-3, 1000)
        h = 5e-4
        f = {k: barrier.phi(z + k * h, a) for k in (-2, -1, 0, 1, 2)}
        fd1 = (f[-2] - 8 * f[-1] + 8 * f[1] - f[2]) / (12 * h)
        fd2 = (-f[-2] + 16 * f[-1] - 30 * f[0] + 16 * f[1] - f[2]) / (12 * h * h)
        ev = barrier.phi_derivatives(z, a)
        assert np.max(np.abs(ev.phi_prime - fd1)) < 1e-7
        assert np.max(np.abs(ev.phi_double_prime - fd2)) < 1e-7

    def test_gradient_bound(self):
        z = np.linspace(1e-6, 1 - 1e-6, 2001)
        for a in (0.0, 0.3, 2.0, 20.0):
            ev = barrier.phi_derivatives(z, a)
            assert np.max(np.abs(ev.phi_prime)) <= 1.0
            interior = (z > 0.01) & (z < 0.99)
            assert np.max(np.abs(ev.phi_prime[interior])) < 1.0

    def test_dphi_da_matches_finite_difference(self):
        z = np.linspace(0.05, 0.95, 19)
        a, h = 1.3, 1e-6
        fd = (barrier.phi(z, a + h) - barrier.phi(z, a - h)) / (2 * h)
        assert np.max(np.abs(barrier.dphi_da(z, a) - fd)) < 1e-9


class TestH:
    def test_right_angle(self):
        assert abs(barrier.h(np.sqrt(2.0)) - np.pi / 2) < 1e-12

    def test_antipodal(self):
        assert abs(barrier.h(2.0) - np.pi) < 1e-12

    def test_small_chord(self):
        # mpmath: acos(1 - 0.01/2) = 0.10004171361154003
        assert abs(barrier.h(0.1) - 0.10004171361154003) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            barrier.h(2.1)


class TestQ:
    def test_diagonal_limit(self):
        for x in (0.0, 0.5, 2.0, 10.0):
            assert abs(float(barrier.q(x, x + 1e-7)) - 1.0) < 1e-4

    def test_frozen_values(self):
        # mpmath: q(0,1) = (1/2)/(pi/4)^2 = 0.8105694691387022
        assert abs(float(barrier.q(0.0, 1.0)) - 0.8105694691387022) < 1e-12
        # Y -> infinity at X = 1: 4/(3 pi) = 0.42441318157838756
        assert abs(float(barrier.q(1.0, 1e9)) - 0.42441318157838756) < 1e-6

    def test_below_one_on_grid(self):
        x = np.linspace(0.0, 50.0, 200)
        y = np.linspace(0.0, 50.0, 200)
        X, Y = np.meshgrid(x, y, indexing="ij")
        m = Y > X
        assert float(np.max(barrier.q(X[m], Y[m]))) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            barrier.q(2.0, 1.0)


class TestF:
    def test_case1_negative(self):
        assert float(barrier.F_value(0.15, 1.0, 2 * np.pi)) < 0.0

    def test_case2_negative(self):
        L = 4 * np.pi
        a = barrier.a0_for_length(L) + 1.0
        mid = 0.5 * barrier.phi_max(a)
        assert float(barrier.F_value(mid, a, L)) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            barrier.F_value(0.9, 1.0, np.pi)  # above phi_max(1) ~ 0.308

    def test_sign_matches_concavity_of_h(self):
        # oracle: second difference of h(L*phi) in z; the identity ties its
        # sign to F (h' > 0 and 4 - L^2 phi^2 > 0 on the admissible range)
        rng = np.random.RandomState(42)
        checked = 0
        while checked < 100:
            a = float(10.0 ** rng.uniform(-1, 1))
            L = float(rng.uniform(1.0, 4 * np.pi))
            if L * barrier.phi_max(a) > 1.99:
                continue
            z = float(rng.uniform(0.05, 0.45))
            h_step = 1e-4
            zz = np.array([z - h_step, z, z + h_step])
            hv = barrier.h(L * np.asarray(barrier.phi(zz, a)))
            d2 = (hv[2] - 2 * hv[1] + hv[0]) / h_step ** 2
            F = float(barrier.F_value(float(np.asarray(barrier.phi(z, a))), a, L))
            assert np.sign(F) == np.sign(d2)
            checked += 1


class TestA0:
    def test_defining_identity(self):
        for L in (3 * np.pi, 4 * np.pi, 7.0):
            a0 = barrier.a0_for_length(L)
            assert abs(L * barrier.phi_max(a0) - 2.0) < 1e-9

    def test_short_curves_rejected(self):
        with pytest.raises(DomainError):
            barrier.a0_for_length(2 * np.pi)


class TestProperties:
    def test_reference_case(self):
        rep = barrier.check_properties(1.0, 2 * np.pi)
        assert rep.all_passed
        assert [c.name for c in rep.checks] == [
            "symmetry", "gradient_le_one", "concavity", "concavity_of_h"]

    def test_case1_short_curve(self):
        assert barrier.check_properties(1.0, np.pi).all_passed

    def test_case2_long_curve(self):
        # L = 7 > 2 pi needs a >= a0(7) ~ 1.93 for h(L phi) to stay defined
        assert barrier.check_properties(2.0, 7.0).all_passed

    def test_precondition_violation(self):
        # a = 0.5 gives L*max(phi) = 2.21 > 2 at L = 7
        with pytest.raises(PreconditionViolation):
            barrier.check_properties(0.5, 7.0)

    def test_without_h_concavity(self):
        rep = barrier.check_properties(0.5, 7.0, include_concavity_of_h=False)
        assert rep.all_passed and len(rep.checks) == 3

    def test_coarse_grid_rejected(self):
        with pytest.raises(PreconditionViolation):
            barrier.check_properties(1.0, np.pi, grid_size=100)


class TestGridMargins:
    def test_q_grid_margin_against_pair_loop(self):
        x = np.linspace(0.0, 50.0, 40)
        pairs = [(xi, yj) for xi in x for yj in x if yj > xi]
        qs = [float(barrier.q(xi, yj)) for xi, yj in pairs]
        margin, worst = barrier.q_grid_margin(40)
        assert margin == 1.0 - max(qs) and worst == pairs[int(np.argmax(qs))]

    def test_F_margin_against_point_scan(self):
        for a, L in ((0.5, np.pi), (barrier.a0_for_length(3 * np.pi), 3 * np.pi)):
            top = barrier.phi_max(a)
            pv = [top * k / (barrier.F_GRID + 1) for k in range(1, barrier.F_GRID + 1)]
            fs = [float(barrier.F_value(p, a, L)) for p in pv]
            margin, worst = barrier.F_margin(a, L)
            assert margin == -max(fs) and worst == pv[int(np.argmax(fs))]
            assert margin > 0.0


class TestComparisonResidual:
    def test_small_on_grid(self):
        z = np.linspace(1e-4, 1 - 1e-4, 500)
        for a in (0.1, 1.0, 10.0):
            for tau in (0.0, 0.01, 0.1):
                assert float(np.max(np.abs(barrier.comparison_residual(z, a, tau)))) <= 1e-8

    def test_midpoint_pole_handled(self):
        assert abs(float(barrier.comparison_residual(0.5, 1.0, 0.05))) <= 1e-8

    def test_time_derivative_against_finite_difference(self):
        # d_tau phi by symmetric difference in tau, step 1e-6
        z = np.linspace(0.1, 0.9, 17)
        a, tau, step = 2.0, 0.03, 1e-6
        up = barrier.phi(z, barrier.BarrierParams(a, tau + step).a_eff)
        dn = barrier.phi(z, barrier.BarrierParams(a, tau - step).a_eff)
        fd = (up - dn) / (2 * step)
        b = barrier.BarrierParams(a, tau).a_eff
        closed = -4 * np.pi ** 2 * b * barrier.dphi_da(z, b)
        assert np.max(np.abs(fd - closed)) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            barrier.comparison_residual(0.0, 1.0)


def test_barrier_params():
    p = barrier.BarrierParams(a=2.0, tau=0.1)
    assert abs(p.a_eff - 2.0 * np.exp(-0.4 * np.pi ** 2)) < 1e-15
    with pytest.raises(DomainError):
        barrier.BarrierParams(a=-1.0)
