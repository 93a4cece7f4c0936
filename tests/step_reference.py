"""The flow step and the per-step curvature record as first written.

Test oracles only. `step` solves into (3, n) vertex rows, builds a curve from
them with `make_curve` and resamples it, and `max_abs_kappa` reads the
curvature from the full frame; every stage keeps its first arithmetic (the
masked projection divide, the uncached sin^2 and target grids, `np.cumsum`,
the `take`-based cross product), so the package's `flow_engine.step` and
`flow_engine.run` records must agree with these bit for bit.
"""

import numpy as np

from sphereflow.errors import Degenerate, DegenerateSegment, NonConvergent, StepTooLarge
from sphereflow.flow_engine import HARD_LENGTH_FLOOR, FlowState
from sphereflow.sphere_geometry import (
    _MAX_PASSES,
    _ROUNDOFF_PASSES,
    _ROUNDOFF_SPREAD,
    _UNIFORM_RTOL,
    DiscreteCurve,
    _curve,
)


def project_rows(rows):
    sq = rows * rows
    norms = np.sqrt((sq[0] + sq[1]) + sq[2])
    if not (norms.min() > 0.0 and norms.max() < np.inf):
        raise DegenerateSegment("zero or non-finite vertex cannot be projected to the sphere")
    np.divide(rows, norms, out=rows, where=np.abs(norms - 1.0) > 1e-13)


def segment_lengths(rows):
    d = rows[:, 1:] - rows[:, :-1]
    d *= d
    ds = np.sqrt((d[0] + d[1]) + d[2])
    if ds.min() < 1e-14:
        raise DegenerateSegment("consecutive vertices coincide")
    return ds


def length(curve: DiscreteCurve) -> float:
    return float(np.cumsum(curve.seg_lengths)[-1])


def is_uniform(ds):
    return bool(ds.max() - ds.min() <= _UNIFORM_RTOL * (ds.sum() / ds.size))


def make_curve(points) -> DiscreteCurve:
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    rows = np.empty((3, n + 1))
    rows[:, :n] = pts.T
    rows[:, n] = rows[:, 0]
    project_rows(rows)
    return _curve(rows, segment_lengths(rows))


def reparametrize_uniform(curve: DiscreteCurve, n_out: int) -> DiscreteCurve:
    if curve.n == n_out and is_uniform(curve.seg_lengths):
        return curve
    rows, ds = curve.rows, curve.seg_lengths
    for passes in range(1, _MAX_PASSES + 1):
        cum = np.empty(ds.size + 1)
        cum[0] = 0.0
        np.cumsum(ds, out=cum[1:])
        targets = np.arange(n_out) * (float(cum[-1]) / n_out)
        rows_in, rows = rows, np.empty((3, n_out + 1))
        for k in range(3):
            rows[k, :n_out] = np.interp(targets, cum, rows_in[k])
        rows[:, n_out] = rows[:, 0]
        project_rows(rows)
        ds = segment_lengths(rows)
        if is_uniform(ds) or (passes >= _ROUNDOFF_PASSES
                              and ds.max() - ds.min() <= _ROUNDOFF_SPREAD):
            return _curve(rows, ds)
    raise NonConvergent(f"resample to {n_out} vertices did not converge")


def solve_circulant(rows, dt, h):
    """The implicit solve, returning x as (3, n) coordinate rows."""
    n = rows.shape[1] - 1
    lam = 1.0 + (4.0 * dt / (h * h)) * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    return np.fft.irfft(np.fft.rfft(rows[:, :n], axis=1) / lam, n=n, axis=1)


def step(state: FlowState, dt: float, *, c_cfl: float = 5.0) -> FlowState:
    cap = c_cfl * float(np.min(state.curve.seg_lengths)) ** 2
    if dt > cap * (1.0 + 1e-12):
        raise StepTooLarge(f"dt={dt:.3e} exceeds cap {cap:.3e}")
    curve = state.curve
    if not is_uniform(curve.seg_lengths):
        curve = reparametrize_uniform(curve, curve.n)
    n = curve.n
    moved = solve_circulant(curve.rows, dt, length(curve) / n)
    if not np.all(np.isfinite(moved)):
        raise Degenerate("non-finite coordinates after implicit solve")
    new_curve = reparametrize_uniform(make_curve(moved.T), n)

    L_old, L_new = length(state.curve), length(new_curve)
    if L_new < HARD_LENGTH_FLOOR:
        raise Degenerate(f"length collapsed to {L_new:.3e}")

    tau = state.tau + 0.5 * dt * (1.0 / L_old ** 2 + 1.0 / L_new ** 2)
    return FlowState(curve=new_curve, t=state.t + dt, tau=tau,
                     step_index=state.step_index + 1)


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def kappa(curve: DiscreteCurve) -> np.ndarray:
    """Signed geodesic curvature per vertex, by the frame's first formula."""
    ds = curve.seg_lengths
    rows = curve.rows
    p_mid, p_next = rows[:, :-1], rows[:, 1:]
    p_prev = np.empty_like(p_mid)
    p_prev[:, 1:] = rows[:, :-2]
    p_prev[:, 0] = rows[:, -2]
    ds_prev = np.empty_like(ds)
    ds_prev[1:] = ds[:-1]
    ds_prev[0] = ds[-1]

    t = p_next - p_prev
    tp = t * p_mid
    t -= ((tp[0] + tp[1]) + tp[2]) * p_mid
    tt = t * t
    t /= np.sqrt((tt[0] + tt[1]) + tt[2])
    normal = t.take(_NEXT, axis=0) * p_mid.take(_PREV, axis=0)
    normal -= t.take(_PREV, axis=0) * p_mid.take(_NEXT, axis=0)

    inv = 2.0 / (ds_prev + ds)
    g = inv * ((p_next - p_mid) / ds - (p_mid - p_prev) / ds_prev)
    g += p_mid
    g *= normal
    return -((g[0] + g[1]) + g[2])


def max_abs_kappa(curve: DiscreteCurve) -> float:
    """What the per-step record wrote as max_abs_kappa."""
    return float(np.max(np.abs(kappa(curve))))
