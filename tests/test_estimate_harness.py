import math

import numpy as np
import pytest

from sphereflow import config, estimate_harness as eh
from sphereflow import flow_engine
from sphereflow.errors import PreconditionViolation

# verdict order of verify; perfbench/workloads.py compares against its own copies
FINITE_TIME_ORDER = ("chord_arc", "curvature_bound", "length_sandwich", "improved_length",
                     "tau_bracket", "roundness", "fenchel", "length_decay")
GREAT_CIRCLE_ORDER = ("chord_arc", "curvature_bound", "great_circle", "fenchel", "length_decay")


def series_arrays(run):
    return run["series"], run["outcome"]


def series_of(**columns):
    """A DiagnosticsSeries whose records are the given columns; scalars broadcast."""
    n = max(np.size(v) for v in columns.values())
    series = flow_engine.DiagnosticsSeries()
    for row in zip(*(np.broadcast_to(columns[name], n)
                     for name in flow_engine.DIAGNOSTICS_COLUMNS)):
        series.append(*row)
    return series


def columns_of(series):
    return {name: series.column(name) for name in flow_engine.DIAGNOSTICS_COLUMNS}


class TestFiniteTimeChecks:
    def test_parallel_all_pass(self, parallel_run):
        series, outcome = series_arrays(parallel_run)
        a = series.a_resolved
        checks = eh.run_applicable_checks(series, outcome.kind, a,
                                          T_est=outcome.T_est, z_est=outcome.z_est)
        assert tuple(c.name for c in checks) == FINITE_TIME_ORDER
        for c in checks:
            assert c.verdict, f"{c.name}: min_margin={c.min_margin}"

    def test_sandwich_saturated_from_below_on_parallel(self, parallel_run):
        series, outcome = series_arrays(parallel_run)
        chk = eh.check_length_sandwich(series, outcome.T_est, series.a_resolved)
        # equality family: lower bound tight at every record
        t = series.column("t")
        L = series.column("L")
        low = 2 * math.pi * np.sqrt(np.maximum(1 - np.exp(-2 * (outcome.T_est - t)), 0.0))
        assert np.max(np.abs(L - low) / L) < 0.01
        assert chk.verdict

    def test_perturbed_parallel_all_pass(self, perturbed_parallel_run):
        series, outcome = series_arrays(perturbed_parallel_run)
        checks = eh.run_applicable_checks(series, outcome.kind,
                                          series.a_resolved, T_est=outcome.T_est,
                                          z_est=outcome.z_est)
        for c in checks:
            assert c.verdict, f"{c.name}: min_margin={c.min_margin}"

    def test_margins_reproducible(self, parallel_run):
        series, outcome = series_arrays(parallel_run)
        a = series.a_resolved
        first = eh.check_chord_arc(series, a)
        second = eh.check_chord_arc(series, a)
        assert np.array_equal(first.margins, second.margins)

    def test_roundness_rejects_early_shapes(self, perturbed_parallel_run):
        # no spurious early pass: at t = 0 the rescaled space curvature is far
        # from 1 even though it settles within 5% by the final checkpoint
        series, outcome = series_arrays(perturbed_parallel_run)
        chk = eh.check_roundness(series, outcome.T_est, outcome.z_est)
        assert chk.verdict
        assert chk.margins[0] < 0.0  # first checkpoint deviation above 5%
        assert chk.details["final_max_dev"] <= 0.05

    def test_curvature_margins_equal_recorded_column(self, parallel_run):
        # one formula: the check recomputes what the flow recorded. The flow
        # evaluates it on Python floats, where (2 pi / L) ** 2 calls C pow; the
        # check squares numpy arrays. The two can differ in the bound's last
        # bit, which moves the margin by about one machine epsilon.
        series = parallel_run["series"]
        chk = eh.check_curvature_bound(series, series.a_resolved)
        np.testing.assert_allclose(chk.margins, series.column("curv_margin"), rtol=0, atol=1e-14)

    def test_curvature_consistency_with_roundness(self, parallel_run):
        # bound + sandwich imply the rescaled curvature cap
        series, outcome = series_arrays(parallel_run)
        bound_chk = eh.check_curvature_bound(series, series.a_resolved)
        sandwich = eh.check_length_sandwich(series, outcome.T_est, series.a_resolved)
        round_chk = eh.check_roundness(series, outcome.T_est, outcome.z_est)
        assert bound_chk.verdict and sandwich.verdict
        a = series.a_resolved
        cap = math.sqrt((1 + 2 * a * a / math.pi ** 2) * (1 + 0.02)) / (1 - 0.01)
        assert 1.0 + round_chk.details["final_max_dev"] <= cap + 0.01


class TestNegativeControls:
    def test_halved_a_fails_at_start(self, perturbed_parallel_run):
        series = perturbed_parallel_run["series"]
        chk = eh.check_chord_arc(series, series.a_resolved / 2.0)
        assert not chk.verdict
        assert chk.worst_step == 0

    def test_synthetic_sandwich_violation(self):
        T = 1.0
        t = np.linspace(0.0, 0.9, 200)
        L = 2 * math.pi * np.sqrt(1 - np.exp(-2 * (T - t))) * 0.95  # 5% below lower bound
        series = series_of(step=np.arange(t.size), t=t, tau=0.0, L=L, max_abs_kappa=1.0,
                           min_Z=math.nan, dLdt_obs=math.nan, curv_margin=0.0)
        chk = eh.check_length_sandwich(series, T, 0.5)
        assert not chk.verdict

    def test_corrupted_tau_fails_bracket(self, parallel_run):
        series, outcome = series_arrays(parallel_run)
        columns = columns_of(series)
        bad = series_of(**{**columns, "tau": columns["tau"] * 1.05})
        chk = eh.check_tau_bracket(bad, outcome.T_est, series.a_resolved)
        assert not chk.verdict

    def test_inflated_curvature_fails_bound(self, parallel_run):
        series = parallel_run["series"]
        # curv_margin is copied unchanged: the check recomputes from max_abs_kappa
        columns = columns_of(series)
        bad = series_of(**{**columns, "max_abs_kappa": columns["max_abs_kappa"] * 1.2 + 0.5})
        chk = eh.check_curvature_bound(bad, series.a_resolved)
        assert not chk.verdict


class TestGreatCircleChecks:
    def test_perturbed_equator_passes(self, perturbed_equator_run):
        series, outcome = series_arrays(perturbed_equator_run)
        assert outcome.kind == "great_circle"
        chk = eh.check_great_circle(series)
        assert chk.verdict
        assert chk.details["fitted_slope"] <= eh.GC_SLOPE_MAX

    def test_full_great_circle_suite(self, perturbed_equator_run):
        series, outcome = series_arrays(perturbed_equator_run)
        checks = eh.run_applicable_checks(series, outcome.kind,
                                          series.a_resolved)
        assert tuple(c.name for c in checks) == GREAT_CIRCLE_ORDER
        for c in checks:
            assert c.verdict, f"{c.name}: min_margin={c.min_margin}"

    def test_geodesic_run_trivially_consistent(self):
        from sphereflow.config import GeneratorSpec, RunConfig
        cfg = RunConfig(generator=GeneratorSpec(kind="great_circle"), n=128,
                        dt=1e-4, t_max=0.05, checkpoint_every=20)
        series, outcome = flow_engine.run(cfg)
        checks = eh.run_applicable_checks(series,
                                          outcome.kind, series.a_resolved)
        for c in checks:
            assert c.verdict, f"{c.name}: min_margin={c.min_margin}"

    def test_finite_time_series_rejected(self, parallel_run):
        series = parallel_run["series"]
        with pytest.raises(PreconditionViolation):
            eh.check_great_circle(series)

    @staticmethod
    def _decaying_great_circle(rate):
        # L = 2 pi throughout, max kappa^2 = 0.5 e^{-rate t}
        t = np.linspace(0.0, 2.0, 200)
        return series_of(step=np.arange(t.size), t=t, tau=0.0, L=2 * math.pi,
                         max_abs_kappa=np.sqrt(0.5 * np.exp(-rate * t)),
                         min_Z=math.nan, dLdt_obs=math.nan, curv_margin=0.0)

    def test_decay_slower_than_envelope_fails(self):
        slow = eh.check_great_circle(self._decaying_great_circle(1.0))
        assert not slow.verdict
        assert abs(slow.details["fitted_slope"] + 1.0) < 1e-9
        mode3 = eh.check_great_circle(self._decaying_great_circle(16.0))
        assert mode3.verdict
        assert abs(mode3.details["fitted_slope"] + 16.0) < 1e-9

    def test_equator_trivially_passes(self):
        from sphereflow.config import GeneratorSpec, RunConfig
        cfg = RunConfig(generator=GeneratorSpec(kind="great_circle"), n=128,
                        dt=1e-4, t_max=0.05)
        series, outcome = flow_engine.run(cfg)
        chk = eh.check_great_circle(series)
        assert chk.verdict and math.isnan(chk.details["fitted_slope"])


def test_registry_follows_config_order():
    assert tuple(eh.CHECKS) == config.ALL_CHECKS


def test_registry_calls_checks_through_module_globals(parallel_run, monkeypatch):
    # a wrapper set on the module attribute (as a tracer does) must see the call
    series, outcome = series_arrays(parallel_run)
    calls = []
    check_fenchel = eh.check_fenchel

    def recording(*args):
        calls.append(args)
        return check_fenchel(*args)

    monkeypatch.setattr(eh, "check_fenchel", recording)
    checks = eh.run_applicable_checks(series, outcome.kind, series.a_resolved,
                                      selected=("fenchel",))
    assert [c.name for c in checks] == ["fenchel"] and len(calls) == 1


@pytest.mark.parametrize("kind,selected", [("finite_time_shrink", ("great_circle",)),
                                           ("finite_time_shrink", ()),
                                           ("great_circle", ("roundness", "tau_bracket"))])
def test_no_applicable_check_is_an_error(parallel_run, kind, selected):
    series, outcome = series_arrays(parallel_run)
    with pytest.raises(PreconditionViolation, match="no selected check applies"):
        eh.run_applicable_checks(series, kind, series.a_resolved,
                                 T_est=outcome.T_est, z_est=outcome.z_est,
                                 selected=selected)


def test_decay_fit_fields():
    delta, C = eh.decay_fit(a=1.5, T_est=1.0)
    assert 0.0 < delta <= 1.0
    assert abs(delta - 1.0 / (1.0 + 2 * 1.5 ** 2 / math.pi ** 2)) < 1e-15
    expect_c = (2 * 1.5 ** 2 / (4 * math.pi ** 2)) * math.expm1(2.0) ** (-delta)
    assert abs(C - expect_c) < 1e-15
    assert eh.decay_fit(0.0, 1.0) == (1.0, 0.0)


def test_bound_check_serialization(parallel_run):
    series = parallel_run["series"]
    chk = eh.check_curvature_bound(series, series.a_resolved)
    d = chk.to_dict()
    assert set(d) == {"check", "verdict", "min_margin", "tolerance", "worst_step"}
    assert d["verdict"] == "pass"
