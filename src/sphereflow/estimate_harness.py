"""Machine-checked bounds over completed flow runs.

Each check reduces one of the flow's sharp inequalities to a margin series
over the run's records or checkpoints, normalised so that the verdict rule
is always "pass iff min_margin >= -tolerance". Checks are pure functions of
the run artifacts and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chord_arc
from .barrier import BarrierParams, circle_envelope, circle_radius, curvature_margin, sharp_excess
from .errors import PreconditionViolation
from .flow_engine import DiagnosticsSeries, rescaled_curve
from .sphere_geometry import curvature_sq_integral, frame_field, total_space_curvature

TWO_PI = 2.0 * math.pi
EPS_DISC_COEFF = 10.0          # chord-arc discretisation allowance: 10*(max ds)^2*L
LENGTH_TOL = 0.01              # relative, length-type bounds
CURVATURE_TOL = 0.02           # relative, curvature-type bounds
FENCHEL_SLACK = 1e-3
ROUNDNESS_DEV_TOL = 0.05
RADIUS_WINDOW = (0.98, 1.02)
GC_LENGTH_TOL = 1e-3
GC_SLOPE_MAX = -1.5


@dataclass(frozen=True)
class BoundCheck:
    """Margin series plus verdict for one bound."""

    name: str
    margins: np.ndarray
    steps: np.ndarray
    min_margin: float
    tolerance: float
    verdict: bool
    worst_step: int
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "verdict": "pass" if self.verdict else "fail",
            "min_margin": self.min_margin,
            "tolerance": self.tolerance,
            "worst_step": self.worst_step,
        }


def decay_fit(a: float, T_est: float) -> tuple[float, float]:
    """Exponent delta and prefactor C of the improved length decay bound."""
    excess = sharp_excess(a)
    delta = 1.0 / (1.0 + excess)
    return delta, excess / 4.0 * math.expm1(2.0 * T_est) ** (-delta)


def _finish(name: str, margins: np.ndarray, steps: np.ndarray, tolerance: float,
            details: dict | None = None) -> BoundCheck:
    margins = np.asarray(margins, dtype=float)
    steps = np.asarray(steps, dtype=int)
    k = int(np.argmin(margins)) if margins.size else 0
    mm = float(margins[k]) if margins.size else math.nan
    return BoundCheck(name=name, margins=margins, steps=steps, min_margin=mm,
                      tolerance=tolerance, verdict=bool(margins.size and mm >= -tolerance),
                      worst_step=int(steps[k]) if steps.size else -1,
                      details=details or {})


def _record_row(series: DiagnosticsSeries, step: int) -> int:
    """Index of the first record of a checkpoint step."""
    rows = np.flatnonzero(series.column("step") == step)
    if not rows.size:
        raise PreconditionViolation(f"no diagnostics record for checkpoint step {step}")
    return int(rows[0])


def check_chord_arc(series: DiagnosticsSeries, a: float) -> BoundCheck:
    """Gap above the decayed comparison profile at every checkpoint.

    Margin is min_Z + eps_disc with eps_disc = 10*(max ds)^2*L, so the
    verdict rule is min margin >= 0.
    """
    tau = series.column("tau")
    margins, steps = [], []
    for step, curve in series.checkpoints:
        r = _record_row(series, step)
        gap = chord_arc.min_Z(curve, BarrierParams(a=a, tau=float(tau[r])))
        eps = EPS_DISC_COEFF * float(np.max(curve.seg_lengths)) ** 2 * curve.length
        margins.append(gap + eps)
        steps.append(step)
    return _finish("chord_arc", margins, steps, 0.0, {"a": a})


def check_curvature_bound(series: DiagnosticsSeries, a: float) -> BoundCheck:
    """max(kappa^2 + 1) <= (2 pi / L)^2 (1 + (2 a^2/pi^2) e^{-8 pi^2 tau}) per record."""
    margins = curvature_margin(series.column("max_abs_kappa"), series.column("L"), a,
                               series.column("tau"))
    return _finish("curvature_bound", margins, series.column("step"), CURVATURE_TOL, {"a": a})


def check_length_sandwich(series: DiagnosticsSeries, T_est: float, a: float) -> BoundCheck:
    """2 pi sqrt(1-e^{-2(T-t)}) <= L <= 2 pi sqrt((1+2a^2/pi^2)(1-e^{-2(T-t)}))."""
    L = series.column("L")
    low = TWO_PI * np.sqrt(circle_envelope(T_est, series.column("t")))
    up = low * math.sqrt(1.0 + sharp_excess(a))
    margins = np.minimum((L - low) / L, (up - L) / L)
    return _finish("length_sandwich", margins, series.column("step"), LENGTH_TOL,
                   {"T_est": T_est, "a": a})


def check_improved_length(series: DiagnosticsSeries, T_est: float, a: float) -> BoundCheck:
    """L^2 <= 4 pi^2 (1-e^{-2(T-t)}) (1 + C/(delta+1) (e^{2(T-t)}-1)^delta)."""
    delta, C = decay_fit(a, T_est)
    t = series.column("t")
    L = series.column("L")
    grow = np.maximum(np.expm1(2.0 * (T_est - t)), 0.0)
    bound_sq = TWO_PI ** 2 * circle_envelope(T_est, t) * (1.0 + C / (delta + 1.0) * grow ** delta)
    margins = (np.sqrt(bound_sq) - L) / L
    return _finish("improved_length", margins, series.column("step"), LENGTH_TOL,
                   {"delta": delta, "C": C, "T_est": T_est})


def check_tau_bracket(series: DiagnosticsSeries, T_est: float, a: float) -> BoundCheck:
    """Accumulated tau between the two explicit logarithmic envelopes.

    A failure here with otherwise-passing length bounds points at trapezoid
    quadrature error in the tau column (e.g. a deliberately coarsened step),
    not at a violated estimate.
    """
    t = series.column("t")
    tau = series.column("tau")
    ratio = np.expm1(2.0 * np.maximum(T_est - t, 0.0)) / math.expm1(2.0 * T_est)
    with np.errstate(divide="ignore"):
        logr = np.log(np.maximum(ratio, 1e-300))
    # 8 pi^2 (1 + sharp_excess(a)) in the sharp constant's form rounds
    # differently and would move these margins in the last bit
    low = -logr / (8.0 * math.pi ** 2 + 16.0 * a * a)
    up = -logr / (8.0 * math.pi ** 2)
    scale = np.maximum(tau, 1e-9)
    margins = np.minimum(tau - low, up - tau) / scale
    return _finish("tau_bracket", margins, series.column("step"), LENGTH_TOL,
                   {"T_est": T_est, "a": a})


def _fit_circle(xy: np.ndarray) -> tuple[float, float, float]:
    """Least-squares circle (Kasa): returns (cx, cy, radius)."""
    A = np.column_stack([2.0 * xy[:, 0], 2.0 * xy[:, 1], np.ones(len(xy))])
    b = np.sum(xy ** 2, axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy, c = sol
    return float(cx), float(cy), float(math.sqrt(c + cx * cx + cy * cy))


def check_roundness(series: DiagnosticsSeries, T_est: float, z_est) -> BoundCheck:
    """Rescaled space curvature sqrt(1-e^{-2(T-t)})|kappa_bar| -> 1.

    The verdict binds only the final checkpoint: max pointwise deviation
    within 5% and best-fit circle radius of the rescaled curve in
    [0.98, 1.02]. Earlier checkpoints contribute a reported trend (max and
    length-averaged square deviation, and the empirical sup of the rescaled
    curvature, the constant the bound leaves implicit).
    """
    t = series.column("t")
    if not series.checkpoints:
        raise PreconditionViolation("no checkpoints to assess")
    max_dev, mean_sq, steps = [], [], []
    c0_sq = 0.0
    for step, curve in series.checkpoints:
        r = _record_row(series, step)
        if T_est <= t[r]:
            raise PreconditionViolation("T_est must exceed every checkpoint time")
        frame = frame_field(curve)
        factor = circle_radius(T_est, float(t[r]))
        resc = factor * frame.kappa_bar
        dev = np.abs(resc - 1.0)
        max_dev.append(float(np.max(dev)))
        mean_sq.append(float(np.sum(dev ** 2 * curve.vertex_weights) / curve.length))
        c0_sq = max(c0_sq, float(np.max((factor * frame.kappa) ** 2)))
        steps.append(step)

    fstep, fcurve = series.checkpoints[-1]
    r = _record_row(series, fstep)
    xy, out_of_plane = rescaled_curve(fcurve, float(t[r]), T_est, z_est)
    _, _, radius = _fit_circle(xy)

    margins = ROUNDNESS_DEV_TOL - np.asarray(max_dev)
    final_margin = min(ROUNDNESS_DEV_TOL - max_dev[-1],
                       radius - RADIUS_WINDOW[0], RADIUS_WINDOW[1] - radius)
    k = int(np.argmin(margins))
    return BoundCheck(
        name="roundness", margins=margins, steps=np.asarray(steps, dtype=int),
        min_margin=float(final_margin), tolerance=0.0,
        verdict=bool(final_margin >= 0.0), worst_step=int(fstep),
        details={"final_max_dev": max_dev[-1], "radius": radius,
                 "mean_sq_trend": mean_sq, "empirical_C0_sq": c0_sq,
                 "max_out_of_plane": float(np.max(np.abs(out_of_plane))),
                 "worst_trend_step": int(steps[k])})


def check_great_circle(series: DiagnosticsSeries) -> BoundCheck:
    """Infinite-time behaviour: L -> 2 pi and exponential curvature decay.

    Requires |L_final - 2 pi| <= 1e-3 and the slope of log(max kappa^2)
    against t over the final half of the run at most -1.5 (the curvature
    bound decays at rate -2 once L ~ 2 pi; the flow may decay faster).
    """
    t = series.column("t")
    L = series.column("L")
    kmax = series.column("max_abs_kappa")
    if L[-1] < 0.5 * L[0]:
        raise PreconditionViolation("series shows finite-time shrinking, not a great-circle run")
    half = t >= 0.5 * t[-1]
    m_len = GC_LENGTH_TOL - abs(float(L[-1]) - TWO_PI)
    if float(np.max(kmax[half])) < 1e-8:
        # already a geodesic to machine precision; no decay left to fit
        slope, m_slope = math.nan, m_len
    else:
        sel = half & (kmax > 0.0)
        if int(np.count_nonzero(sel)) < 10:
            raise PreconditionViolation("too few usable records in the final half for a slope fit")
        A = np.column_stack([t[sel], np.ones(int(np.count_nonzero(sel)))])
        slope, _ = np.linalg.lstsq(A, np.log(kmax[sel] ** 2), rcond=None)[0]
        m_slope = -(float(slope) - GC_SLOPE_MAX)
    last = int(series.column("step")[-1])
    return _finish("great_circle", [m_len, m_slope], [last, last], 0.0,
                   {"final_L": float(L[-1]), "fitted_slope": float(slope)})


def check_fenchel(series: DiagnosticsSeries) -> BoundCheck:
    """Total space curvature at least 2 pi (closed space curves), per checkpoint."""
    margins, steps = [], []
    for step, curve in series.checkpoints:
        margins.append(total_space_curvature(curve) - (TWO_PI - FENCHEL_SLACK))
        steps.append(step)
    return _finish("fenchel", margins, steps, 0.0)


def check_length_decay(series: DiagnosticsSeries) -> BoundCheck:
    """Observed dL/dt against -integral of kappa^2 ds, at checkpoints.

    Compares the recorded per-step rate with the quadrature on the
    checkpoint curve, relative to that quadrature. The scale is floored at
    1e-6 so geodesics (both rates ~ 0) compare as trivially consistent. The
    initial record has no rate and is skipped.
    """
    dldt = series.column("dLdt_obs")
    margins, steps = [], []
    for step, curve in series.checkpoints:
        r = _record_row(series, step)
        if r == 0 or not np.isfinite(dldt[r]):
            continue
        integral = curvature_sq_integral(curve)
        scale = max(integral, 1e-6)
        margins.append(CURVATURE_TOL - abs(dldt[r] + integral) / scale)
        steps.append(step)
    if not margins:
        raise PreconditionViolation("no checkpoints with a recorded length rate")
    return _finish("length_decay", margins, steps, 0.0)


_ANY = ("finite_time_shrink", "great_circle")
_SHRINK = ("finite_time_shrink",)

# name -> (call, outcome kinds it applies to), in config.ALL_CHECKS order. A
# call is (series, a, T_est, z_est) -> BoundCheck and looks its check_*
# function up in the module globals when it runs, so a wrapper set on the
# module attribute (as perfbench's tracer does) sees every check.
CHECKS = {
    "chord_arc": (lambda s, a, T, z: check_chord_arc(s, a), _ANY),
    "curvature_bound": (lambda s, a, T, z: check_curvature_bound(s, a), _ANY),
    "length_sandwich": (lambda s, a, T, z: check_length_sandwich(s, T, a), _SHRINK),
    "improved_length": (lambda s, a, T, z: check_improved_length(s, T, a), _SHRINK),
    "tau_bracket": (lambda s, a, T, z: check_tau_bracket(s, T, a), _SHRINK),
    "roundness": (lambda s, a, T, z: check_roundness(s, T, z), _SHRINK),
    "great_circle": (lambda s, a, T, z: check_great_circle(s), ("great_circle",)),
    "fenchel": (lambda s, a, T, z: check_fenchel(s), _ANY),
    "length_decay": (lambda s, a, T, z: check_length_decay(s), _ANY),
}


def run_applicable_checks(series: DiagnosticsSeries, outcome_kind: str, a: float,
                          T_est: float | None = None, z_est=None,
                          selected: tuple[str, ...] | None = None) -> list[BoundCheck]:
    """Run every check applicable to the outcome (optionally intersected
    with an explicit selection) and return the BoundChecks in order.
    Raises PreconditionViolation if none applies: no verdicts is no pass."""
    names = [name for name, (_, kinds) in CHECKS.items()
             if outcome_kind in kinds and (selected is None or name in selected)]
    if not names:
        raise PreconditionViolation(
            f"no selected check applies to a {outcome_kind!r} outcome (selected: {selected})")
    return [CHECKS[name][0](series, a, T_est, z_est) for name in names]
