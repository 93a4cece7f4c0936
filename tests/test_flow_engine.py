import math

import numpy as np
import pytest
import step_reference

from sphereflow import chord_arc, flow_engine, generators, run_io
from sphereflow import sphere_geometry as sg
from sphereflow.config import GeneratorSpec, RunConfig
from sphereflow.errors import (
    Degenerate,
    DegenerateSegment,
    InsufficientData,
    NonConvergent,
    SelfIntersection,
    StepTooLarge,
)


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

    @pytest.mark.parametrize("n, dt", [(128, 1.6e-3), (256, 4e-4), (512, 1e-4)])
    def test_parallel_follows_the_schemes_own_recurrence(self, n, dt):
        # A regular polygon on a parallel stays one, and its x and y rows are
        # pure mode +-1: the solve divides them by 1 + dt / sin^2(theta) and
        # leaves z, so tan(theta') = tan(theta) / (1 + dt / sin^2(theta)) and
        # L = 2 n sin(theta) sin(pi / n), exactly. Round-off accumulates about
        # linearly: 3.9e-16 to 7.5e-16 relative per step, 2.3e-13 (465 steps)
        # to 5.5e-12 (7399 steps) in all, down to L = 1. The bound allows
        # 4e-15 per step; a term of first order in dt off would be ~dt per step.
        theta = math.pi / 3
        st = state_of(generators.parallel_curve(theta, n))
        worst = 0.0
        while st.curve.length >= 1.0:
            h = min(dt, flow_engine.dt_max(st))
            st = flow_engine.step(st, h)
            theta = math.atan(math.tan(theta) / (1.0 + h / math.sin(theta) ** 2))
            L = 2 * n * math.sin(theta) * math.sin(math.pi / n)
            worst = max(worst, abs(st.curve.length - L) / L)
        assert worst <= 4e-15 * st.step_index

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

    def test_resampled_input_is_not_tested_again(self, monkeypatch):
        # the resample that made the curve has tested its spacing already
        c = sg.reparametrize_uniform(clustered_parallel(256), 256)
        tested, is_uniform = [], sg._is_uniform

        def recording(ds):
            tested.append(ds)
            return is_uniform(ds)

        monkeypatch.setattr(sg, "_is_uniform", recording)
        monkeypatch.setattr(flow_engine, "_is_uniform", recording, raising=False)
        flow_engine.step(state_of(c), 1e-5)
        assert tested and not any(ds is c.seg_lengths for ds in tested)

    def test_non_finite_solve_is_degenerate(self, monkeypatch):
        monkeypatch.setattr(flow_engine, "_solve_circulant",
                            lambda rows, dt, h: np.full_like(rows, np.nan))
        st = state_of(generators.parallel_curve(math.pi / 3, 64))
        with pytest.raises(Degenerate, match="^non-finite coordinates after implicit solve$") as info:
            flow_engine.step(st, 1e-4)
        assert not isinstance(info.value, DegenerateSegment)

    def test_length_below_the_hard_floor_is_degenerate(self, monkeypatch):
        # a parallel shrinks, so with the floor at its length one step is below it
        st = state_of(generators.parallel_curve(math.pi / 3, 64))
        monkeypatch.setattr(flow_engine, "HARD_LENGTH_FLOOR", st.curve.length)
        with pytest.raises(Degenerate, match=r"^length collapsed to 5\.439e\+00$"):
            flow_engine.step(st, 1e-4)

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


def closed_rows(points):
    """(3, n+1) coordinate rows of an (n, 3) array, vertex 0 repeated last."""
    return np.concatenate([points.T, points[:1].T], axis=1)


def clustered_parallel(n):
    """The parallel of radius 0.7, with vertices bunched near u = pi."""
    u = 2 * np.pi * np.arange(n) / n
    u = u + 0.4 * np.sin(u)
    return sg.make_curve(np.column_stack([0.7 * np.cos(u), 0.7 * np.sin(u),
                                          np.full(n, np.sqrt(1 - 0.49))]))


class TestCirculantSolve:
    @pytest.mark.parametrize("n", [8, 9, 64, 512])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        p = rng.normal(size=(n, 3))
        h = 2 * np.pi / n
        for dt in (1e-6, 5.0 * h * h):
            lap = cyclic_laplacian(np.full(n, h))
            expect = np.linalg.solve(np.eye(n) - dt * lap, p)
            got = flow_engine._solve_circulant(closed_rows(p), dt, h)[:, :n].T
            assert np.max(np.abs(got - expect)) < 1e-13

    @pytest.mark.parametrize("n", [8, 9, 63, 64, 511, 512, 1024])
    def test_rows_match_vertex_array_solve_bitwise(self, n):
        # the same solve on (n, 3) vertices along axis 0, as it was once written
        p = np.random.default_rng(n + 1).normal(size=(n, 3))
        h = 2 * np.pi / n
        for dt in (1e-6, 5.0 * h * h):
            lam = 1.0 + (4.0 * dt / (h * h)) * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
            expect = np.fft.irfft(np.fft.rfft(p, axis=0) / lam[:, None], n=n, axis=0)
            got = flow_engine._solve_circulant(closed_rows(p), dt, h)
            assert got.shape == (3, n + 1)
            assert np.array_equal(got[:, :n].T, expect)
            assert np.array_equal(got[:, :n], step_reference.solve_circulant(closed_rows(p), dt, h))

    def test_uniform_spacing_to_tolerance_is_enough(self):
        # a resampled curve is uniform to 1e-12 of ds, not exactly; the
        # circulant solve with h = L/n agrees with the solve on its own ds
        c = generators.fourier_perturbed_curve((0, 0, 1), [1, 3], [0.2, 0.1], 512, seed=7,
                                               antipodal_symmetric=True)
        ds = c.seg_lengths
        assert 0.0 < ds.max() - ds.min() <= sg._UNIFORM_RTOL * ds.mean()
        dt = flow_engine.dt_max(state_of(c))
        expect = np.linalg.solve(np.eye(c.n) - dt * cyclic_laplacian(ds), c.points)
        got = flow_engine._solve_circulant(c.rows, dt, c.length / c.n)[:, :c.n].T
        assert np.max(np.abs(got - expect)) < 1e-13

    def test_nonuniform_input_is_resampled_first(self):
        n = 256
        clustered = clustered_parallel(n)
        uniform = sg.reparametrize_uniform(clustered, n)
        assert uniform is not clustered
        a = flow_engine.step(state_of(clustered), 1e-5).curve.points
        b = flow_engine.step(state_of(uniform), 1e-5).curve.points
        assert np.array_equal(a, b)


class TestMatchesStepReference:
    """step and the record's curvature agree bit for bit with the first
    make_curve -> reparametrize_uniform step and frame_field record
    (tests/step_reference.py), each following its own trajectory."""

    @pytest.mark.parametrize("start", ["pipeline", "parallel", "nonuniform"])
    def test_steps(self, start):
        curve = {
            "pipeline": lambda: generators.fourier_perturbed_curve(
                (0, 0, 1), [1, 3], [0.2, 0.1], 512, seed=7, antipodal_symmetric=True),
            "parallel": lambda: generators.parallel_curve(math.pi / 3, 64),
            "nonuniform": lambda: clustered_parallel(256),
        }[start]()
        ours = theirs = state_of(curve)
        for _ in range(300):
            dt = min(2e-3, flow_engine.dt_max(ours))
            ours, theirs = flow_engine.step(ours, dt), step_reference.step(theirs, dt)
            assert np.array_equal(ours.curve.rows, theirs.curve.rows)
            assert (ours.t, ours.tau) == (theirs.t, theirs.tau)
            assert ours.curve.length == step_reference.length(theirs.curve)
            ours_kmax = float(np.maximum.reduce(np.abs(sg.curvature_rows(ours.curve)[2])))
            assert ours_kmax == step_reference.max_abs_kappa(theirs.curve)
        assert ours.step_index == 300

    def test_shrinking_run(self, perturbed_parallel_run, monkeypatch):
        # the reference step, resample and curvature in every place run uses them
        for module in (flow_engine, generators):
            monkeypatch.setattr(module, "reparametrize_uniform",
                                step_reference.reparametrize_uniform)
        monkeypatch.setattr(flow_engine, "step", step_reference.step)
        for module in (flow_engine, chord_arc):
            monkeypatch.setattr(module, "curvature_rows",
                                lambda curve: (None, None, step_reference.kappa(curve)))
        theirs, outcome = flow_engine.run(perturbed_parallel_run["config"])
        ours = perturbed_parallel_run["series"]
        assert np.array_equal(ours.rows(), theirs.rows(), equal_nan=True)
        assert [k for k, _ in ours.checkpoints] == [k for k, _ in theirs.checkpoints]
        for (_, a), (_, b) in zip(ours.checkpoints, theirs.checkpoints):
            assert np.array_equal(a.rows, b.rows)
        assert ours.checkpoints[-1][1].n < ours.checkpoints[0][1].n   # n was halved
        assert outcome.T_est == perturbed_parallel_run["outcome"].T_est


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

    def test_self_intersection_detected(self, monkeypatch):
        # validate_simple admits the start curve and reports the first stepped
        # curve it checks, the one of step simple_every, as not embedded
        checked = []

        def crossed_after_the_start(curve):
            checked.append(curve)
            return len(checked) == 1

        monkeypatch.setattr(flow_engine, "validate_simple", crossed_after_the_start)
        cfg = RunConfig(generator=GeneratorSpec(kind="parallel", theta0=1.0),
                        n=128, dt=2e-4, t_max=0.05, simple_every=3)
        with pytest.raises(SelfIntersection, match=r"^embeddedness lost at t=0\.0006$") as info:
            flow_engine.run(cfg)
        assert len(checked) == 2
        assert list(info.value.series.column("step")) == [0, 1, 2]

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
        T_fit, rms = flow_engine.extinction_fit(series)
        assert abs(T_fit - 1.0) < 1e-6
        assert rms < 1e-9   # round-off of the model itself

    def test_exact_parallel_data(self):
        # closed-form shrinking parallel with theta0 = pi/3: T = ln 2
        T = math.log(2.0)
        t_end = T + 0.5 * math.log1p(-(0.05 / (2 * math.pi)) ** 2)
        series = self.synthetic(T, t_end, count=600)
        assert abs(flow_engine.extinction_fit(series)[0] - T) / T < 1e-3

    def test_flat_series_rejected(self):
        series = flow_engine.DiagnosticsSeries()
        for k in range(100):
            series.append(k, k * 1e-3, 0.0, 2 * math.pi, 0.0, math.nan, math.nan, 0.0)
        with pytest.raises(InsufficientData):
            flow_engine.extinction_fit(series)


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
