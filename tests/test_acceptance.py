"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Long flow runs are shared session fixtures (see conftest). Tolerances are
fixed here, not tuned at runtime.
"""

import math

import numpy as np

from sphereflow import barrier, chord_arc, estimate_harness as eh, generators
from sphereflow.barrier import BarrierParams

LN2 = math.log(2.0)
TWO_PI = 2.0 * math.pi


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {tag}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_shrinking_parallel_exactness(parallel_run):
    series = parallel_run["series"]
    outcome = parallel_run["outcome"]
    T = outcome.T_est
    t = series.column("t")
    L = series.column("L")
    arg = 1.0 - np.exp(-2.0 * (T - t))
    model = TWO_PI * np.sqrt(np.maximum(arg, 0.0))
    ok_domain = bool(np.all(arg > 0.0))
    max_rel = float(np.max(np.abs(L - model) / np.where(model > 0, model, 1.0)))
    t_err = abs(T - LN2) / LN2
    wall = parallel_run["wall_seconds"]
    ok = ok_domain and t_err <= 0.01 and max_rel <= 0.01 and wall < 60.0
    _report(1, "shrinking-parallel exactness", ok,
            f"T_est={T:.6f} (err {t_err:.2%}), max|L-model|/model={max_rel:.2%}, "
            f"runtime={wall:.1f}s")


def test_criterion_2_barrier_equality_residual():
    z = np.linspace(1e-4, 1.0 - 1e-4, 2001)
    worst = 0.0
    for a in (0.1, 1.0, 10.0):
        for tau in (0.0, 0.01, 0.1):
            worst = max(worst, float(np.max(np.abs(
                barrier.comparison_residual(z, a, tau)))))
    _report(2, "comparison-identity residual", worst <= 1e-8, f"max|R|={worst:.3e}")


def test_criterion_3_barrier_grids():
    q_margin = barrier.q_grid_margin(500).min_margin

    f_ok = True
    for L in (math.pi, TWO_PI):
        for a in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            f_ok &= barrier.F_margin(a, L).min_margin > 0.0
    for L in (3 * math.pi, 4 * math.pi):
        a0 = barrier.a0_for_length(L)
        for factor in (1.0, 1.5, 3.0):
            f_ok &= barrier.F_margin(a0 * factor, L).min_margin > 0.0

    conc_ok = True
    pairs = [(1.0, math.pi), (1.0, TWO_PI),
             (barrier.a0_for_length(3 * math.pi) * 1.001, 3 * math.pi),
             (barrier.a0_for_length(4 * math.pi) * 1.001, 4 * math.pi),
             (5.0, 3 * math.pi), (10.0, 4 * math.pi)]
    for a, L in pairs:
        conc_ok &= all(c.passed for c in barrier.check_properties(a, L))

    ok = q_margin > 0.0 and f_ok and conc_ok
    _report(3, "q/F/concavity grids", ok,
            f"q margin={q_margin:.3e}, F<0={f_ok}, h-concavity={conc_ok}")


def test_criterion_4_chord_arc_under_flow(perturbed_equator_run, perturbed_parallel_run):
    details = []
    ok = True
    for label, run in (("equator", perturbed_equator_run),
                       ("parallel", perturbed_parallel_run)):
        series = run["series"]
        a_star = series.a_resolved
        chk = eh.check_chord_arc(series, a_star)
        ok &= chk.verdict
        details.append(f"{label}: a*={a_star:.3f} min margin={chk.min_margin:.2e}")
        # negative control: halving a must fail at t = 0
        step0, curve0 = series.checkpoints[0]
        gap = chord_arc.min_Z(curve0, BarrierParams(a_star / 2.0))
        eps0 = 10.0 * float(np.max(curve0.seg_lengths)) ** 2 * curve0.length
        ok &= gap + eps0 < 0.0
        details.append(f"{label} control minZ(a*/2)={gap:.2e}")
    _report(4, "chord-arc estimate under flow", ok, "; ".join(details))


def test_criterion_5_curvature_bound(parallel_run, perturbed_parallel_run,
                                     perturbed_equator_run):
    ok = True
    details = []
    for label, run in (("parallel", parallel_run),
                       ("perturbed parallel", perturbed_parallel_run),
                       ("perturbed equator", perturbed_equator_run)):
        series = run["series"]
        chk = eh.check_curvature_bound(series, series.a_resolved)
        ok &= chk.verdict
        details.append(f"{label} margin={chk.min_margin:.2%}")
    # equality family saturates: (kappa^2 + 1) L^2 = 4 pi^2
    series = parallel_run["series"]
    sat = (series.column("max_abs_kappa") ** 2 + 1.0) * series.column("L") ** 2
    sat_err = float(np.max(np.abs(sat / (4 * math.pi ** 2) - 1.0)))
    ok &= sat_err <= 0.02
    details.append(f"saturation err={sat_err:.2%}")
    _report(5, "curvature bound", ok, "; ".join(details))


def test_criterion_6_cubic_coefficient():
    ok = True
    details = []
    for theta, target in ((math.pi / 6, 1.0 / 6.0), (math.pi / 4, 1.0 / 12.0),
                          (math.pi / 2, 1.0 / 24.0)):
        prof = chord_arc.profile(generators.parallel_curve(theta, 2048), 512)
        c = chord_arc.cubic_fit(prof)
        rel = abs(c - target) / target
        ok &= rel < 0.05
        details.append(f"theta={theta:.3f}: c={c:.5f} vs {target:.5f} ({rel:.2%})")
    _report(6, "small-separation cubic coefficient", ok, "; ".join(details))


def test_criterion_7_finite_time_asymptotics(parallel_run, perturbed_parallel_run):
    ok = True
    details = []
    for label, run in (("parallel", parallel_run),
                       ("perturbed", perturbed_parallel_run)):
        series = run["series"]
        outcome = run["outcome"]
        a = series.a_resolved
        sandwich = eh.check_length_sandwich(series, outcome.T_est, a)
        bracket = eh.check_tau_bracket(series, outcome.T_est, a)
        roundness = eh.check_roundness(series, outcome.T_est, outcome.z_est)
        ok &= sandwich.verdict and bracket.verdict and roundness.verdict
        details.append(
            f"{label}: sandwich={sandwich.min_margin:.2%}, tau={bracket.min_margin:.2%}, "
            f"radius={roundness.details['radius']:.4f}, "
            f"dev={roundness.details['final_max_dev']:.2%}")
    # equality family: rescaled curvature within 1% at every checkpoint
    series = parallel_run["series"]
    outcome = parallel_run["outcome"]
    rnd = eh.check_roundness(series, outcome.T_est, outcome.z_est)
    par_dev = float(np.max(0.05 - rnd.margins))  # margins = 0.05 - dev
    ok &= par_dev <= 0.01
    details.append(f"parallel all-checkpoint dev={par_dev:.2%}")
    _report(7, "finite-time asymptotics", ok, "; ".join(details))


# Slowest non-rigid latitude mode of the antipodally symmetric fixture: only
# odd k survive the symmetry and k = 1 is a rigid tilt, so k = 3.
GC_SLOWEST_MODE = 3
# Relative tolerance on the mode-3 decay rate. The scheme's first-order time
# error at dt = 2e-4 is about 0.1% of the rate (2[log(1+dt) - log(1+9dt)]/dt
# = -15.984 against -16); 1% admits that and round-off, and still rejects the
# rate-2 envelope, the mode-5 rate (48) and the rate 20 of phi_t = phi_uu - phi.
GC_RATE_RTOL = 0.01


def test_criterion_8_infinite_time_case(symmetrized_equator_run):
    series = symmetrized_equator_run["series"]
    outcome = symmetrized_equator_run["outcome"]
    L_final = float(series.column("L")[-1])
    len_ok = outcome.kind == "great_circle" and abs(L_final - TWO_PI) <= 1e-3
    chk = eh.check_great_circle(series)
    slope = chk.details["fitted_slope"]
    if not math.isfinite(slope):
        _report(8, "infinite-time case", False,
                f"fitted slope is {slope}: max kappa is below 1e-8 over the final "
                f"half, so there is no decay to compare with the predicted rate")
    # linear prediction: max kappa^2 ~ e^{-2(k^2-1)t} for the slowest mode
    predicted = -2.0 * (GC_SLOWEST_MODE ** 2 - 1)
    rate_ok = abs(slope - predicted) <= GC_RATE_RTOL * abs(predicted)
    # envelope of the curvature bound, (2pi/L)^2 (1 + 2a^2/pi^2 e^{-8pi^2 tau}) - 1,
    # fitted over the same records as check_great_circle's slope
    t = series.column("t")
    L = series.column("L")
    tau = series.column("tau")
    a = series.a_resolved
    envelope = (TWO_PI / L) ** 2 * (1.0 + (2.0 * a * a / math.pi ** 2)
                                    * np.exp(-8.0 * math.pi ** 2 * tau)) - 1.0
    sel = (t >= 0.5 * t[-1]) & (series.column("max_abs_kappa") > 0.0)
    env_slope = float(np.polyfit(t[sel], np.log(envelope[sel]), 1)[0])
    envelope_ok = slope <= env_slope
    _report(8, "infinite-time case", len_ok and chk.verdict and rate_ok and envelope_ok,
            f"|L-2pi|={abs(L_final - TWO_PI):.2e}, check margin={chk.min_margin:.2e}, "
            f"observed slope={slope:.3f}, predicted -2(k^2-1)={predicted:.0f} (k={GC_SLOWEST_MODE}, "
            f"rtol {GC_RATE_RTOL:.0%}), envelope slope={env_slope:.3f}")


def test_criterion_9_numerical_hygiene(parallel_run, perturbed_parallel_run,
                                       parallel_run_hires):
    ok = True
    details = []
    for label, run in (("parallel", parallel_run),
                       ("perturbed", perturbed_parallel_run)):
        series = run["series"]
        decay = eh.check_length_decay(series)
        fenchel = eh.check_fenchel(series)
        ok &= decay.verdict and fenchel.verdict
        details.append(f"{label}: dL/dt margin={decay.min_margin:.2e}, "
                       f"fenchel margin={fenchel.min_margin:.2e}")
    t_lo = parallel_run["outcome"].T_est
    t_hi = parallel_run_hires["outcome"].T_est
    shift = abs(t_hi - t_lo) / t_lo
    ok &= shift < 0.005
    details.append(f"T_est shift at 2x resolution={shift:.3%}")
    _report(9, "numerical hygiene", ok, "; ".join(details))
