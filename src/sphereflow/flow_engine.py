"""Time integration of curve shortening flow on the unit sphere.

In ambient coordinates the flow of an arclength-parametrised spherical
curve is gamma_t = gamma_ss + gamma (the curvature vector splits into the
stiff diffusion part and a unit-strength reaction). Each step treats
gamma_ss implicitly, projects the result back onto the sphere, and resamples
to uniform spacing. A step starts from uniformly spaced vertices (a
non-uniform input is resampled first), so the implicit matrix I - dt*Delta_h
with spacing h = L/n is circulant and the discrete Fourier transform
diagonalises it: one rfft, a division by
lambda_k = 1 + (4 dt / h^2) sin^2(pi k / n), and one irfft. The +gamma term
needs no arithmetic of its own: it is normal to the sphere, so the
projection back onto it supplies it, and it is the source of the +1 in the
decay rate k^2 - 1 of a latitude mode cos(k u) about a great circle. (An
explicit factor (1 + dt) on the right-hand side would scale every vertex
alike, and the projection would remove it again.) The rescaled clock
tau = int L^-2 dt accumulates by trapezoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import chord_arc, generators
from .barrier import FOUR_PI_SQ, BarrierParams, circle_radius, curvature_margin
from .config import RunConfig
from .errors import Degenerate, InsufficientData, NonConvergent, NotSimple, SelfIntersection, StepTooLarge
from .sphere_geometry import (
    DiscreteCurve,
    _is_uniform,
    frame_field,
    make_curve,
    orthonormal_basis,
    reparametrize_uniform,
    validate_simple,
)

HARD_LENGTH_FLOOR = 1e-8


@dataclass(frozen=True)
class FlowState:
    curve: DiscreteCurve
    t: float
    tau: float
    step_index: int


DIAGNOSTICS_COLUMNS = ("step", "t", "tau", "L", "max_abs_kappa", "min_Z", "dLdt_obs", "curv_margin")


@dataclass(eq=False)
class DiagnosticsSeries:
    """One row per record and one float column per DIAGNOSTICS_COLUMNS name, in
    a growable array. min_Z is NaN between scheduled O(n^2) evaluations;
    dLdt_obs is the flow-induced length rate, without resampling jumps;
    curv_margin is the relative clearance below the curvature bound."""

    checkpoints: list[tuple[int, DiscreteCurve]] = field(default_factory=list)
    a_resolved: float = math.nan
    _rows: np.ndarray = field(init=False, repr=False,
                              default_factory=lambda: np.empty((256, len(DIAGNOSTICS_COLUMNS))))
    _size: int = field(init=False, default=0)

    def append(self, *values: float) -> None:
        """Add one record, its values in DIAGNOSTICS_COLUMNS order."""
        if self._size == len(self._rows):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
        self._rows[self._size] = values
        self._size += 1

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column over the records so far."""
        return self.rows()[:, DIAGNOSTICS_COLUMNS.index(name)]

    def rows(self) -> np.ndarray:
        """Read-only view of the records so far, one row each."""
        view = self._rows[:self._size]
        view.flags.writeable = False
        return view

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> DiagnosticsSeries:
        """A series holding a copy of the (records, columns) array rows."""
        series = cls()
        series._rows = np.concatenate([rows, series._rows])
        series._size = len(rows)
        return series


@dataclass(frozen=True)
class Outcome:
    kind: str                     # "finite_time_shrink" | "great_circle"
    T_est: float | None = None
    z_est: np.ndarray | None = None
    axis: np.ndarray | None = None
    fit_residual: float | None = None


def dt_max(state: FlowState, c_cfl: float = 5.0) -> float:
    """Accuracy cap on the step size: c_cfl * (min segment length)^2."""
    return c_cfl * float(np.min(state.curve.seg_lengths)) ** 2


def _solve_circulant(points: np.ndarray, dt: float, h: float) -> np.ndarray:
    """Solve (I - dt*Delta_h) x = points for (n, 3) points, where Delta_h is
    the cyclic second difference (x_{i-1} - 2 x_i + x_{i+1}) / h^2.

    The matrix is circulant, so the DFT diagonalises it with eigenvalues
    lambda_k = 1 + (4 dt / h^2) sin^2(pi k / n).
    """
    n = points.shape[0]
    lam = 1.0 + (4.0 * dt / (h * h)) * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    return np.fft.irfft(np.fft.rfft(points, axis=0) / lam[:, None], n=n, axis=0)


def step(state: FlowState, dt: float, *, c_cfl: float = 5.0,
         check_simple: bool = False) -> FlowState:
    """One semi-implicit flow step of size dt, then projection and resampling.

    The solve needs uniform spacing; a non-uniform input curve is resampled
    to its own vertex count first.
    """
    cap = dt_max(state, c_cfl)
    if dt > cap * (1.0 + 1e-12):
        raise StepTooLarge(f"dt={dt:.3e} exceeds cap {cap:.3e}")
    curve = state.curve
    if not _is_uniform(curve.seg_lengths):
        curve = reparametrize_uniform(curve, curve.n)
    n = curve.n
    moved = _solve_circulant(curve.points, dt, curve.length / n)
    if not np.all(np.isfinite(moved)):
        raise Degenerate("non-finite coordinates after implicit solve")
    new_curve = reparametrize_uniform(moved, n)

    L_old, L_new = state.curve.length, new_curve.length
    if L_new < HARD_LENGTH_FLOOR:
        raise Degenerate(f"length collapsed to {L_new:.3e}")
    if check_simple and not validate_simple(new_curve):
        raise SelfIntersection(f"embeddedness lost at t={state.t + dt:.6g}")

    tau = state.tau + 0.5 * dt * (1.0 / L_old ** 2 + 1.0 / L_new ** 2)
    return FlowState(curve=new_curve, t=state.t + dt, tau=tau,
                     step_index=state.step_index + 1)


def symmetrize(curve: DiscreteCurve) -> DiscreteCurve:
    """Project onto the antipodally symmetric family gamma(u+pi) = -gamma(u)."""
    n = curve.n
    if n % 2:
        raise Degenerate("antipodal symmetrisation needs an even vertex count")
    p = curve.points
    return make_curve(0.5 * (p - np.roll(p, -n // 2, axis=0)))


def _target_n(n0: int, L0: float, L: float, n_floor: int) -> int:
    halvings = max(0, int(math.floor(math.log2(L0 / L)))) if L < L0 else 0
    return max(n_floor, n0 >> halvings) if halvings < 60 else n_floor


def run(cfg: RunConfig) -> tuple[DiagnosticsSeries, Outcome]:
    """Integrate from the configured initial curve until shrink-out,
    great-circle plateau, or t_max; classify the outcome.

    Raises NonConvergent when t_max arrives without a classifiable state or
    a resample does not converge, with the partial diagnostics attached as
    its `series`.
    """
    curve = generators.initial_curve(cfg)
    if not validate_simple(curve):
        raise NotSimple("initial curve is not embedded")
    if cfg.symmetrize:
        curve = symmetrize(curve)
    a = cfg.a if cfg.a is not None else chord_arc.admissible_a(curve, cfg.admissible_tol)

    state = FlowState(curve=curve, t=0.0, tau=0.0, step_index=0)
    series = DiagnosticsSeries(a_resolved=a)
    series.checkpoints.append((0, curve))
    n0, L0 = curve.n, curve.length

    def record(st: FlowState, dldt: float, with_z: bool):
        frame = frame_field(st.curve)
        kmax = float(np.max(np.abs(frame.kappa)))
        mz = math.nan
        if with_z:
            mz = chord_arc.min_Z(st.curve, BarrierParams(a=a, tau=st.tau)).min_value
        L = st.curve.length
        series.append(st.step_index, st.t, st.tau, L, kmax, mz, dldt,
                      curvature_margin(kmax, L, a, st.tau))
        return kmax

    kappa_max = record(state, math.nan, with_z=True)

    finished = None
    try:
        while finished is None:
            # The spatial cap keeps the stencil resolved; the curvature cap keeps
            # dt a fixed fraction of the flow timescale 1/kappa_bar^2, which near
            # extinction bounds the accumulated timing drift proportionally at
            # every scale (per-step defect is O(dt^2 kappa_bar^2)).
            dt = min(cfg.dt, dt_max(state, cfg.c_cfl),
                     cfg.dt_curvature_frac / (1.0 + kappa_max * kappa_max))
            check = (state.step_index + 1) % cfg.simple_every == 0
            new_state = step(state, dt, c_cfl=cfg.c_cfl, check_simple=check)
            if cfg.symmetrize:
                new_state = replace(new_state, curve=symmetrize(new_state.curve))
            dldt = (new_state.curve.length - state.curve.length) / dt

            resized = _target_n(n0, L0, new_state.curve.length, cfg.n_floor)
            if resized < new_state.curve.n:
                new_state = replace(new_state, curve=reparametrize_uniform(new_state.curve, resized))

            state = new_state
            shrunk = state.curve.length < cfg.l_floor
            timed_out = state.t >= cfg.t_max
            with_z = state.step_index % cfg.z_every == 0 or shrunk or timed_out
            kappa_max = record(state, dldt, with_z)

            plateau = state.step_index >= 10 and kappa_max < cfg.gc_kappa_tol
            if shrunk:
                finished = "shrunk"
            elif plateau or timed_out:
                finished = "flat"

            if state.step_index % cfg.checkpoint_every == 0 or finished is not None:
                series.checkpoints.append((state.step_index, state.curve))

        L = state.curve.length
        if finished == "flat" and not (abs(L - 2.0 * math.pi) <= 0.05 * 2.0 * math.pi
                                       and kappa_max <= 0.5):
            raise NonConvergent(
                f"t_max={cfg.t_max} reached with L={L:.4f}, max|kappa|={kappa_max:.3e}")
    except NonConvergent as exc:
        exc.series = series  # partial diagnostics for the caller to persist
        raise

    if finished == "shrunk":
        T_est, rms = _extinction_fit(series)
        centroid = np.mean(state.curve.points, axis=0)
        z_est = centroid / np.linalg.norm(centroid)
        return series, Outcome(kind="finite_time_shrink", T_est=T_est, z_est=z_est,
                               fit_residual=rms)

    p = state.curve.points
    area_vec = np.sum(np.cross(p, np.roll(p, -1, axis=0)), axis=0)
    return series, Outcome(kind="great_circle", axis=area_vec / np.linalg.norm(area_vec))


def _extinction_fit(series: DiagnosticsSeries) -> tuple[float, float]:
    """Fit L^2 = 4 pi^2 (1 - e^{-2(T-t)}) over the final decade of L.

    Least squares on the relative misfit of L^2 (weights 1/L^4), linear in
    beta = e^{-2T} so the solve is closed-form. Relative weighting anchors T
    to the smallest-L records, where the model comparison is most sensitive.
    """
    t = series.column("t")
    L = series.column("L")
    if L.size < 2 or L[-1] >= 0.5 * L[0]:
        raise InsufficientData("length has not decayed enough to fit an extinction time")
    window = L <= 10.0 * L[-1]
    if int(np.count_nonzero(window)) < 50:
        raise InsufficientData(f"only {int(np.count_nonzero(window))} records in the final decade")
    tw, Lw = t[window], L[window]
    g = np.exp(2.0 * tw)
    w = 1.0 / Lw ** 4
    beta = float(np.sum(w * g * (FOUR_PI_SQ - Lw ** 2)) / (FOUR_PI_SQ * np.sum(w * g * g)))
    if beta <= 0.0:
        raise InsufficientData("degenerate extinction fit")
    T = -0.5 * math.log(beta)
    model = FOUR_PI_SQ * (1.0 - beta * g)
    rms = float(np.sqrt(np.mean(((Lw ** 2 - model) / Lw ** 2) ** 2)))
    return T, rms


def estimate_extinction(series: DiagnosticsSeries) -> float:
    """Extinction time from the length history (see _extinction_fit)."""
    return _extinction_fit(series)[0]


def rescaled_curve(curve: DiscreteCurve, t: float, T_est: float,
                   z_est) -> tuple[np.ndarray, np.ndarray]:
    """The curve at time t in the frame of the shrinking solution:
    (p - z)/sqrt(1 - e^{-2(T-t)}).

    Returns in-plane coordinates (n, 2) in an orthonormal basis of the
    tangent plane at z_est, plus the out-of-plane residual (n,).
    """
    if not T_est > t:
        raise InsufficientData(f"T_est={T_est} must exceed current time {t}")
    z = np.asarray(z_est, dtype=float)
    z = z / np.linalg.norm(z)
    rel = (curve.points - z) / circle_radius(T_est, t)
    e1, e2, e3 = orthonormal_basis(z)
    xy = np.column_stack([rel @ e1, rel @ e2])
    return xy, rel @ e3
