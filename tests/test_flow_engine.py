import math

import numpy as np
import pytest

from sphereflow import flow_engine, generators, run_io
from sphereflow import sphere_geometry as sg
from sphereflow.config import GeneratorSpec, RunConfig
from sphereflow.errors import InsufficientData, NonConvergent, SelfIntersection, StepTooLarge


def state_of(curve):
    return flow_engine.FlowState(curve=curve, t=0.0, tau=0.0, step_index=0)


class TestStep:
    def test_equator_fixed_point(self):
        c = generators.great_circle_curve((0, 0, 1), 256)
        new = flow_engine.step(state_of(c), 1e-4)
        assert np.max(np.linalg.norm(new.curve.points - c.points, axis=1)) < 1e-10

    def test_parallel_short_horizon_against_ode(self):
        # oracle: d(theta)/dt = -cot(theta), i.e. cos(theta(t)) = cos(theta0) e^t,
        # L(t) = 2 pi sqrt(1 - e^{2t} cos^2(theta0))
        theta0, n, dt, t_end = math.pi / 3, 256, 1e-4, 0.2
        st = state_of(generators.parallel_curve(theta0, n))
        while st.t < t_end - 1e-12:
            st = flow_engine.step(st, dt)
        expect = 2 * math.pi * math.sqrt(1 - math.exp(2 * st.t) * math.cos(theta0) ** 2)
        assert abs(st.curve.length - expect) / expect < 5e-3

    def test_length_decreases(self):
        c = generators.fourier_perturbed_curve((0, 0, 1), [2, 3], [0.2, 0.1], 256, seed=8)
        st = state_of(c)
        for _ in range(20):
            new = flow_engine.step(st, 5e-5)
            assert new.curve.length < st.curve.length * (1 + 1e-12)
            st = new

    def test_length_rate_and_upper_bound(self):
        # dL/dt = -int kappa^2 ds (within 2%) and L_t <= L - 4 pi^2 / L
        c = generators.fourier_perturbed_curve((0, 0, 1), [2, 3], [0.2, 0.1], 512, seed=8)
        st = state_of(c)
        dt = 5e-5
        for _ in range(5):
            integral = sg.curvature_sq_integral(st.curve)
            new = flow_engine.step(st, dt)
            rate = (new.curve.length - st.curve.length) / dt
            assert abs(rate + integral) / integral < 0.02
            L = st.curve.length
            assert rate <= L - 4 * math.pi ** 2 / L + 0.02 * integral
            st = new

    def test_step_too_large(self):
        st = state_of(generators.great_circle_curve((0, 0, 1), 256))
        with pytest.raises(StepTooLarge):
            flow_engine.step(st, 1.0, c_cfl=5.0)

    def test_self_intersection_detected(self):
        n = 256
        u = 2 * np.pi * np.arange(n) / n
        lam = 0.8 * np.sin(u + 0.3)
        phi = 0.5 * np.sin(2 * u + 0.6)
        bad = sg.make_curve(np.column_stack([np.cos(phi) * np.cos(lam),
                                             np.cos(phi) * np.sin(lam), np.sin(phi)]))
        with pytest.raises(SelfIntersection):
            flow_engine.step(state_of(bad), 1e-6, check_simple=True)

    def test_tau_accumulates_trapezoidally(self):
        st = state_of(generators.parallel_curve(math.pi / 3, 128))
        dt = 1e-4
        tau = 0.0
        for _ in range(10):
            new = flow_engine.step(st, dt)
            tau += 0.5 * dt * (st.curve.length ** -2 + new.curve.length ** -2)
            st = new
        assert abs(st.tau - tau) < 1e-15


def cyclic_laplacian(ds):
    """Dense 3-point second difference on cyclic spacing ds (x_{i+1} - x_i = ds_i)."""
    n = ds.size
    ds_prev = np.roll(ds, 1)
    alpha = 2.0 / (ds_prev * (ds_prev + ds))
    beta = 2.0 / (ds * (ds_prev + ds))
    lap = np.zeros((n, n))
    for i in range(n):
        lap[i, (i - 1) % n] += alpha[i]
        lap[i, (i + 1) % n] += beta[i]
        lap[i, i] -= alpha[i] + beta[i]
    return lap


class TestCirculantSolve:
    @pytest.mark.parametrize("n", [8, 9, 64, 512])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        p = rng.normal(size=(n, 3))
        h = 2 * np.pi / n
        for dt in (1e-6, 5.0 * h * h):
            lap = cyclic_laplacian(np.full(n, h))
            expect = np.linalg.solve(np.eye(n) - dt * lap, p)
            assert np.max(np.abs(flow_engine._solve_circulant(p, dt, h) - expect)) < 1e-13

    def test_uniform_spacing_to_tolerance_is_enough(self):
        # a resampled curve is uniform to 1e-12 of ds, not exactly; the
        # circulant solve with h = L/n agrees with the solve on its own ds
        c = generators.fourier_perturbed_curve((0, 0, 1), [1, 3], [0.2, 0.1], 512, seed=7,
                                               antipodal_symmetric=True)
        ds = c.seg_lengths
        assert 0.0 < ds.max() - ds.min() <= sg._UNIFORM_RTOL * ds.mean()
        dt = flow_engine.dt_max(state_of(c))
        expect = np.linalg.solve(np.eye(c.n) - dt * cyclic_laplacian(ds), c.points)
        got = flow_engine._solve_circulant(c.points, dt, c.length / c.n)
        assert np.max(np.abs(got - expect)) < 1e-13

    def test_nonuniform_input_is_resampled_first(self):
        n = 256
        u = 2 * np.pi * np.arange(n) / n
        u = u + 0.4 * np.sin(u)
        clustered = sg.make_curve(np.column_stack([0.7 * np.cos(u), 0.7 * np.sin(u),
                                                   np.full(n, np.sqrt(1 - 0.49))]))
        uniform = sg.reparametrize_uniform(clustered, n)
        assert uniform is not clustered
        a = flow_engine.step(state_of(clustered), 1e-5).curve.points
        b = flow_engine.step(state_of(uniform), 1e-5).curve.points
        assert np.array_equal(a, b)


class TestSymmetrize:
    def test_antipodal_curve_unchanged(self):
        c = generators.fourier_perturbed_curve((0, 0, 1), [1, 3], [0.1, 0.05], 128,
                                               antipodal_symmetric=True)
        s = flow_engine.symmetrize(c)
        assert np.max(np.linalg.norm(s.points - c.points, axis=1)) < 1e-12

    def test_projects_to_symmetric(self):
        c = generators.fourier_perturbed_curve((0, 0, 1), [2, 3], [0.1, 0.1], 128, seed=1)
        s = flow_engine.symmetrize(c)
        n = s.n
        assert np.max(np.linalg.norm(s.points + np.roll(s.points, -n // 2, axis=0),
                                     axis=1)) < 1e-12


class TestRun:
    def test_equator_classified_as_great_circle(self):
        cfg = RunConfig(generator=GeneratorSpec(kind="great_circle"), n=128,
                        dt=1e-4, t_max=0.05)
        series, outcome = flow_engine.run(cfg)
        assert outcome.kind == "great_circle"
        assert abs(abs(outcome.axis[2]) - 1.0) < 1e-9
        L = series.column("L")
        assert np.max(L) - np.min(L) < 1e-9 * L[0]

    def test_records_are_per_step_and_tau_monotone(self):
        cfg = RunConfig(generator=GeneratorSpec(kind="parallel", theta0=1.0),
                        n=128, dt=2e-4, t_max=0.02)
        try:
            series, _ = flow_engine.run(cfg)
        except NonConvergent as exc:
            series = exc.series
        steps = series.column("step").astype(int)
        assert list(steps) == list(range(len(steps)))
        tau = series.column("tau")
        assert np.all(np.diff(tau) > 0)

    def test_nonconverging_resample_attaches_partial_series(self, tmp_path, monkeypatch):
        # a uniform non-circular start: the file needs no resample, the steps do
        c = generators.fourier_perturbed_curve((0, 0, 1), [2, 3], [0.2, 0.1], 128, seed=8)
        run_io.write_curve_csv(c, tmp_path / "start.csv")
        gen = GeneratorSpec(kind="from_file", path=str(tmp_path / "start.csv"))
        cfg = RunConfig(generator=gen, n=128, dt=1e-4, t_max=0.05)
        monkeypatch.setattr(sg, "_MAX_PASSES", 1)
        with pytest.raises(NonConvergent, match="did not converge in 1 passes") as info:
            flow_engine.run(cfg)
        steps = info.value.series.column("step")
        assert steps.size >= 1 and list(steps) == list(range(steps.size))

    def test_nonconvergent_attaches_partial_series(self):
        gen = GeneratorSpec(kind="fourier_perturbed", axis=(0, 0, 1),
                            modes=(0, 2), amplitudes=(0.4, 0.1))
        cfg = RunConfig(generator=gen, n=128, dt=2e-4, t_max=0.01, seed=2)
        with pytest.raises(NonConvergent) as info:
            flow_engine.run(cfg)
        assert info.value.series.column("step").size > 10

    def test_column_is_a_read_only_view(self):
        series = flow_engine.DiagnosticsSeries()
        for k in range(1000):  # past the initial capacity
            series.append(k, 0.5 * k, 0.0, 2 * math.pi, 0.0, math.nan, 0.0, 0.0)
        t = series.column("t")
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 1.0
        assert np.array_equal(t, 0.5 * np.arange(1000))
        assert np.array_equal(series.column("step"), np.arange(1000))
        assert np.isnan(series.column("min_Z")).all()


class TestEstimateExtinction:
    def synthetic(self, T, t_end, count=400):
        # log-dense toward extinction, like an adaptively stepped run
        t = T - np.geomspace(T, T - t_end, count)
        L = 2 * math.pi * np.sqrt(1 - np.exp(-2 * (T - t)))
        series = flow_engine.DiagnosticsSeries()
        for k, (tk, Lk) in enumerate(zip(t, L)):
            series.append(k, tk, 0.0, Lk, 0.0, math.nan, math.nan, 0.0)
        return series

    def test_recovers_its_own_model(self):
        # L(t_end) = 0.03 => deep decade coverage
        T = 1.0
        t_end = T + 0.5 * math.log1p(-(0.03 / (2 * math.pi)) ** 2)
        series = self.synthetic(T, t_end)
        assert abs(flow_engine.estimate_extinction(series) - 1.0) < 1e-6

    def test_exact_parallel_data(self):
        # closed-form shrinking parallel with theta0 = pi/3: T = ln 2
        T = math.log(2.0)
        t_end = T + 0.5 * math.log1p(-(0.05 / (2 * math.pi)) ** 2)
        series = self.synthetic(T, t_end, count=600)
        assert abs(flow_engine.estimate_extinction(series) - T) / T < 1e-3

    def test_flat_series_rejected(self):
        series = flow_engine.DiagnosticsSeries()
        for k in range(100):
            series.append(k, k * 1e-3, 0.0, 2 * math.pi, 0.0, math.nan, math.nan, 0.0)
        with pytest.raises(InsufficientData):
            flow_engine.estimate_extinction(series)


class TestRescaledCurve:
    def test_parallel_is_exactly_round(self):
        # the shrinking-parallel family rescales to the unit circle with
        # out-of-plane residual tan(theta/2) ~ factor/2
        theta = 0.3
        c = generators.parallel_curve(theta, 128)
        T = -math.log(math.cos(theta))
        xy, oop = flow_engine.rescaled_curve(c, 0.0, T, np.array([0.0, 0.0, 1.0]))
        radii = np.linalg.norm(xy, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-12
        expect_oop = -math.tan(theta / 2.0)
        assert np.max(np.abs(oop - expect_oop)) < 1e-12

    def test_requires_future_extinction(self):
        c = generators.parallel_curve(0.5, 64)
        with pytest.raises(InsufficientData):
            flow_engine.rescaled_curve(c, 0.0, -1.0, np.array([0.0, 0.0, 1.0]))
