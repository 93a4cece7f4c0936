"""The comparison profile phi(z; a) = arctan((a/pi) sin(pi z))/a and friends.

Everything here is closed-form scalar math, vectorised over z. Writing
tan(a*phi) = a*C with C(z) = sin(pi z)/pi turns the published closed forms
for phi' and phi'' into pole-free rational expressions in C and
D = 1 + a^2 C^2:

    phi' = C'/D,   phi'' = C (pi^2 a^2 C^2 - pi^2 - 2 a^2) / D^2.

The time-dependent family phi(z; a e^{-4 pi^2 tau}) satisfies

    d_tau phi = 4 (phi'' + pi^2 phi) + 8 pi phi' cot(pi z) - 8 pi phi'^2 / sin(pi z)

identically; comparison_residual returns the defect of that identity and is
the anchor the chord-arc machinery rests on.

a = 0 always means the limiting profile sin(pi z)/pi, evaluated on its own
branch (small-a evaluation of arctan(a C)/a loses digits to cancellation).

The curvature bound, the length sandwich and the improved length decay all
follow from one sharp two-point estimate, so they share one constant,
1 + sharp_excess(a), and one comparison solution, the shrinking circle
L^2 = 4 pi^2 (1 - e^{-2(T-t)}); each is written here once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionViolation

FOUR_PI_SQ = 4.0 * np.pi ** 2
F_GRID = 399                     # interior phi samples of F_margin


@dataclass(frozen=True)
class BarrierParams:
    """Barrier parameter a >= 0 and rescaled time tau >= 0.

    The effective parameter a_eff = a * exp(-4 pi^2 tau) is the single
    number the comparison profile depends on at time tau.
    """

    a: float
    tau: float = 0.0

    def __post_init__(self):
        if self.a < 0.0 or self.tau < 0.0:
            raise DomainError(f"need a >= 0 and tau >= 0, got a={self.a}, tau={self.tau}")

    @property
    def a_eff(self) -> float:
        return self.a * float(np.exp(-FOUR_PI_SQ * self.tau))


@dataclass(frozen=True)
class BarrierEval:
    """phi and its first two z-derivatives at given z."""

    phi: np.ndarray
    phi_prime: np.ndarray
    phi_double_prime: np.ndarray


def _cd(z, a):
    z = np.asarray(z, dtype=float)
    c = np.sin(np.pi * z) / np.pi
    cp = np.cos(np.pi * z)
    d = 1.0 + (a * a) * c * c
    return c, cp, d


def phi(z, a: float):
    """Comparison profile; symmetric about z = 1/2, zero at z in {0, 1}."""
    if a < 0.0:
        raise DomainError(f"barrier parameter must be >= 0, got {a}")
    return phi_of_c(np.sin(np.pi * np.asarray(z, dtype=float)) / np.pi, a)


def phi_of_c(c, a: float):
    """phi in terms of c = sin(pi z)/pi: arctan(a c)/a, and c itself at a = 0."""
    if a == 0.0:
        return c
    return np.arctan(a * c) / a


def phi_max(a: float) -> float:
    """Peak value phi(1/2; a) = arctan(a/pi)/a (1/pi in the a -> 0 limit)."""
    if a < 0.0:
        raise DomainError(f"barrier parameter must be >= 0, got {a}")
    if a == 0.0:
        return 1.0 / np.pi
    return float(np.arctan(a / np.pi) / a)


def phi_derivatives(z, a: float) -> BarrierEval:
    """Closed-form phi, phi', phi'' (tan(a phi) = a C eliminates the poles)."""
    if a < 0.0:
        raise DomainError(f"barrier parameter must be >= 0, got {a}")
    c, cp, d = _cd(z, a)
    if a == 0.0:
        return BarrierEval(phi=c, phi_prime=cp, phi_double_prime=-np.pi ** 2 * c)
    val = np.arctan(a * c) / a
    prime = cp / d
    second = c * ((np.pi * a) ** 2 * c * c - np.pi ** 2 - 2.0 * a * a) / (d * d)
    return BarrierEval(phi=val, phi_prime=prime, phi_double_prime=second)


def dphi_da(z, a: float):
    """Partial derivative of phi with respect to a (0 in the a -> 0 limit)."""
    if a < 0.0:
        raise DomainError(f"barrier parameter must be >= 0, got {a}")
    c, _, d = _cd(z, a)
    if a == 0.0:
        return np.zeros_like(c)
    return (c / d - np.arctan(a * c) / a) / a


def sharp_excess(a: float) -> float:
    """2 a^2 / pi^2: the sharp constant 1 + 2 a^2 / pi^2 less one."""
    return 2.0 * a * a / np.pi ** 2


def circle_envelope(T, t):
    """max(1 - e^{-2(T-t)}, 0): L^2 / (4 pi^2) of the shrinking circle that
    vanishes at time T. Vectorised over t."""
    return np.maximum(1.0 - np.exp(-2.0 * (T - t)), 0.0)


def circle_radius(T: float, t: float) -> float:
    """sqrt(1 - e^{-2(T-t)}) for scalar t < T, the shrinking circle's
    L / (2 pi). A scalar copy of circle_envelope: math.exp and np.exp can
    differ in the last bit."""
    return math.sqrt(1.0 - math.exp(-2.0 * (T - t)))


def curvature_bound(L, a: float, tau):
    """Bound on max kappa_bar^2 = 1 + kappa^2 at length L and rescaled time tau:
    (2 pi / L)^2 (1 + (2 a^2 / pi^2) e^{-8 pi^2 tau}). Vectorised over L, tau,
    with the same bits for floats as for arrays (no pow)."""
    k = 2.0 * np.pi / L
    return k * k * (1.0 + sharp_excess(a) * np.exp(-2.0 * FOUR_PI_SQ * tau))


def curvature_a(kappa_bar_sq: float, L: float) -> float:
    """Smallest a >= 0 with kappa_bar_sq <= curvature_bound(L, a, 0): pi sqrt(x / 2),
    x = kappa_bar_sq (L / 2 pi)^2 - 1, and 0 when x <= 0."""
    x = kappa_bar_sq * (L / (2.0 * np.pi)) ** 2 - 1.0
    return math.pi * math.sqrt(0.5 * x) if x > 0.0 else 0.0


def curvature_margin(max_abs_kappa, L, a: float, tau):
    """Relative clearance (bound - (kappa^2 + 1)) / bound below curvature_bound.
    Vectorised over max_abs_kappa, L, tau."""
    bound = curvature_bound(L, a, tau)
    return (bound - (max_abs_kappa * max_abs_kappa + 1.0)) / bound


def h(d):
    """Spherical distance of a chord: h(d) = arccos(1 - d^2/2), d in [0, 2]."""
    arr = np.asarray(d, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 2.0 + 1e-12):
        raise DomainError("chordlength outside [0, 2]")
    return np.arccos(np.clip(1.0 - 0.5 * arr * arr, -1.0, 1.0))


def q(x, y):
    """The two-variable ratio controlling concavity for long curves.

    q(X, Y) = [1/(1+Y^2)] * [(Y^2-X^2)/((arctan Y)^2-(arctan X)^2)]
            * [arctan(X)/X], with arctan(X)/X -> 1 as X -> 0.
    Strictly below 1 for 0 <= X < Y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0.0) or np.any(y <= x):
        raise DomainError("need 0 <= X < Y")
    ax = np.arctan(x)
    ay = np.arctan(y)
    pos = x > 0.0
    sinc = np.where(pos, np.divide(ax, x, out=np.ones_like(x), where=pos), 1.0)
    return (1.0 / (1.0 + y * y)) * ((y * y - x * x) / (ay * ay - ax * ax)) * sinc


def F_value(phi_val, a: float, L: float):
    """Sign surrogate for the second derivative of h(L*phi).

    F(phi) = (1/pi^2 - tan^2(a phi)/a^2) (L^2 - a^2 (4 - L^2 phi^2) tan(a phi)/(a phi))
             - (1 + a^2/pi^2) (4 - L^2 phi^2) tan(a phi)/(a phi)

    Valid for phi in (0, arctan(a/pi)/a); negative there iff h(L*phi(z)) is
    strictly concave at the matching z. At a = 0, tan(a phi)/a -> phi gives
    the constant L^2/pi^2 - 4.
    """
    pv = np.asarray(phi_val, dtype=float)
    top = phi_max(a)
    if np.any(pv <= 0.0) or np.any(pv >= top):
        raise DomainError(f"phi must lie in (0, {top:.6g}) for a={a}")
    if a == 0.0:
        return np.full_like(pv, L * L / np.pi ** 2 - 4.0)
    t = np.tan(a * pv)
    tanc = t / (a * pv)
    rest = (4.0 - (L * pv) ** 2) * tanc
    return (1.0 / np.pi ** 2 - (t / a) ** 2) * (L * L - a * a * rest) - (1.0 + (a / np.pi) ** 2) * rest


def q_grid_margin(grid: int) -> PropertyCheck:
    """q < 1 over the pairs X < Y of a grid x grid lattice on [0, 50]^2: the
    least 1 - q and the (X, Y) where q is largest. A grid below 2 has no pair."""
    if grid < 2:
        raise PreconditionViolation(f"the q grid needs at least 2 points, got {grid}")
    x = np.linspace(0.0, 50.0, grid)
    X, Y = np.meshgrid(x, x, indexing="ij")
    mask = Y > X
    X, Y = X[mask], Y[mask]
    return _grid_check("q_below_one", grid, np.column_stack([X, Y]), q(X, Y), lambda v: 1.0 - v)


def F_margin(a: float, L: float) -> PropertyCheck:
    """F < 0 at phi = phi_max(a) k / (F_GRID + 1), k = 1..F_GRID: the least
    -F and the phi where F is largest."""
    pv = phi_max(a) * np.arange(1, F_GRID + 1) / (F_GRID + 1.0)
    return _grid_check("F_negative", F_GRID, pv, F_value(pv, a, L))


def a0_for_length(L: float, tol: float = 1e-12) -> float:
    """Smallest admissible a for property (iv) at total length L > 2*pi.

    Defined implicitly by arctan(a0/pi)/a0 = 2/L; bisection on the strictly
    decreasing map a |-> phi_max(a).
    """
    if L <= 2.0 * np.pi:
        raise DomainError("a0 is only defined for L > 2*pi (shorter curves need no threshold)")
    target = 2.0 / L
    lo, hi = 0.0, 1.0
    while phi_max(hi) > target:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError("a0 search diverged")
    while hi - lo > tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if phi_max(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def comparison_residual(z, a: float, tau: float = 0.0):
    """Defect of the exact evolution identity for the profile family.

    With a_eff = a e^{-4 pi^2 tau} and phi = phi(.; a_eff),

        R = d_tau phi - 4 (phi'' + pi^2 phi)
            - 8 pi phi' / tan(pi z) + 8 pi phi'^2 / sin(pi z),

    where d_tau phi = -4 pi^2 a_eff * dphi/da. Analytically R == 0; the
    returned values are pure floating-point noise. The trigonometric terms
    are evaluated as 8 phi' C'/C and 8 phi'^2 / C with C = sin(pi z)/pi,
    which removes the individual poles at z in {0, 1/2, 1}.
    """
    zz = np.asarray(z, dtype=float)
    if np.any(zz <= 0.0) or np.any(zz >= 1.0):
        raise DomainError("residual is defined on z in (0, 1)")
    b = BarrierParams(a=a, tau=tau).a_eff
    c, cp, _ = _cd(zz, b)
    ev = phi_derivatives(zz, b)
    d_tau = -FOUR_PI_SQ * b * dphi_da(zz, b)
    return d_tau - 4.0 * (ev.phi_double_prime + np.pi ** 2 * ev.phi) \
        - 8.0 * ev.phi_prime * cp / c + 8.0 * ev.phi_prime ** 2 / c


@dataclass(frozen=True)
class PropertyCheck:
    """Grid verdict for one property of the profile: its least margin over the
    grid of the given size and the grid point where that margin falls."""

    property: str
    grid: int
    min_margin: float
    worst_point: float | tuple[float, ...]
    passed: bool


def _grid_check(prop: str, grid: int, points, value, margin=np.negative,
                holds=None) -> PropertyCheck:
    """The check of a property that bounds value from above at the grid points
    (one per value; a row each when a point has several coordinates). It is
    decided at the first point where value is largest, as the raw value picks
    it, not the margin, which can round two values alike: margin(v) is the
    clearance there, and the property holds iff holds(v), by default iff the
    margin is positive."""
    k = int(np.argmax(value))
    v = value[k]
    m = float(margin(v))
    point = points[k].tolist()
    return PropertyCheck(prop, grid, m, tuple(point) if isinstance(point, list) else point,
                         bool(holds(v)) if holds else m > 0.0)


def check_properties(a: float, L: float, grid_size: int = 2001) -> list[PropertyCheck]:
    """Grid verification of the four structural properties of phi.

    (i) symmetry under z -> 1-z, (ii) |phi'| <= 1, (iii) strict concavity of
    phi, (iv) strict concavity of h(L*phi). Property (iv) requires
    L * max(phi) <= 2; outside that range the call raises
    PreconditionViolation.
    """
    if grid_size < 1000:
        raise PreconditionViolation("grid resolution must be at least 1e3")
    peak = L * phi_max(a)
    if peak > 2.0:
        raise PreconditionViolation(
            f"L*max(phi) = {peak:.6g} > 2; h(L*phi) undefined on part of the range")
    z = np.linspace(0.0, 1.0, grid_size)
    zi = z[1:-1]
    step = z[1] - z[0]
    vals = phi(z, a)
    hvals = h(L * vals)
    return [
        _grid_check("symmetry", grid_size, z, np.abs(vals - phi(1.0 - z, a)),
                    lambda v: 1e-12 - v, lambda v: v <= 1e-12),
        _grid_check("gradient_le_one", grid_size, zi, np.abs(phi_derivatives(zi, a).phi_prime),
                    lambda v: 1.0 - v, lambda v: v <= 1.0 + 1e-12),
        _grid_check("concavity", grid_size, zi,
                    (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / (step * step)),
        _grid_check("concavity_of_h", grid_size, zi,
                    (hvals[2:] - 2.0 * hvals[1:-1] + hvals[:-2]) / (step * step)),
    ]
