"""Chord-arc profile of a discrete curve and the gap to the comparison profile.

For vertices x, y at shorter-arc separation ell, the profile records the
minimum Euclidean chord d at each normalised separation z = ell/L in
(0, 1/2]. The auxiliary gap

    Z(x, y) = d(x, y) - L * phi(ell/L; a_eff)

measures clearance above the comparison profile; its minimum over vertex
pairs (cyclic index distance >= 2, where the polygon chord stops degenerating
to the arc) is the quantity the flow is supposed to keep nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import barrier
from .errors import InsufficientData, NotAdmissible, PreconditionViolation
from .sphere_geometry import DiscreteCurve, _pair_blocks

ADMISSIBLE_A_CAP = 1e6
FILTER_SLACK = 1e-14           # relative to L, see admissible_a


@dataclass(frozen=True)
class ChordArcProfile:
    """Binned minimum chord per normalised arclength bin over (0, 1/2].

    psi is NaN on empty bins (reported, never fatal); pair_i/pair_j give the
    vertex pair achieving each bin minimum and pair_z its exact separation.
    """

    z_centers: np.ndarray
    psi: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_z: np.ndarray
    L: float
    mean_spacing: float

    @property
    def n_bins(self) -> int:
        return self.z_centers.size

    @property
    def empty_bins(self) -> np.ndarray:
        return np.isnan(self.psi)


@dataclass(frozen=True)
class ZReport:
    """Minimum of the gap Z over admissible vertex pairs."""

    min_value: float
    pair: tuple[int, int]
    a_eff: float


def _separation(curve: DiscreteCurve, i, j) -> np.ndarray:
    """Normalised shorter-arc separation z = ell/L of vertex pairs i < j."""
    s = curve.cum_lengths
    length = curve.length
    arc = s[j] - s[i]
    return np.minimum(arc, length - arc) / length


def _chords(curve: DiscreteCurve, min_gap: int):
    """Yield (rows, cols, d, z) per row block of vertex pairs (see _pair_blocks)."""
    for rows, cols, d2 in _pair_blocks(curve.points, min_gap):
        yield rows, cols, np.sqrt(d2), _separation(curve, rows, cols)


def profile(curve: DiscreteCurve, n_bins: int) -> ChordArcProfile:
    """Exact pairwise minimum chord per z-bin, bins (k/2m, (k+1)/2m].

    Each bin records the first pair (i, j) in row-major upper-triangle
    order that attains its minimum. O(n^2) time, O(n * block) memory.
    """
    if n_bins < 16:
        raise PreconditionViolation(f"need at least 16 bins, got {n_bins}")
    edges = np.linspace(0.0, 0.5, n_bins + 1)
    psi = np.full(n_bins, np.inf)
    pair_i = np.full(n_bins, -1, dtype=int)
    pair_j = np.full(n_bins, -1, dtype=int)

    for rows, cols, d, z in _chords(curve, 1):
        idx = np.searchsorted(edges, z, side="left") - 1
        pos = np.flatnonzero((idx >= 0) & (idx < n_bins))
        idx, d = idx.ravel()[pos], d.ravel()[pos]
        block_min = np.full(n_bins, np.inf)
        np.minimum.at(block_min, idx, d)
        hit = d == block_min[idx]
        bins, first = np.unique(idx[hit], return_index=True)
        # strict: on a tie the earlier block, hence the earlier pair, stays
        better = block_min[bins] < psi[bins]
        bins, win = bins[better], pos[hit][first[better]]
        psi[bins] = block_min[bins]
        pair_i[bins] = rows[win // cols.size, 0]
        pair_j[bins] = cols[0, win % cols.size]

    empty = pair_i < 0
    psi[empty] = np.nan
    pair_z = np.full(n_bins, np.nan)
    pair_z[~empty] = _separation(curve, pair_i[~empty], pair_j[~empty])
    centers = 0.5 * (edges[:-1] + edges[1:])
    for arr in (psi, pair_i, pair_j, pair_z, centers):
        arr.flags.writeable = False
    return ChordArcProfile(z_centers=centers, psi=psi, pair_i=pair_i, pair_j=pair_j,
                           pair_z=pair_z, L=curve.length,
                           mean_spacing=curve.length / curve.n)


def min_Z(curve: DiscreteCurve, params: barrier.BarrierParams) -> ZReport:
    """Minimum gap d - L*phi(ell/L; a_eff) over pairs at cyclic distance >= 2.

    On ties the first pair in row-major upper-triangle order is reported.
    """
    a_eff = params.a_eff
    length = curve.length
    value, pair = math.inf, (-1, -1)
    for rows, cols, d, z in _chords(curve, 2):
        gaps = d - length * barrier.phi(z, a_eff)
        k = int(np.argmin(gaps))
        if gaps.flat[k] < value:
            r, c = divmod(k, cols.size)
            value, pair = float(gaps.flat[k]), (int(rows[r, 0]), int(cols[0, c]))
    return ZReport(min_value=value, pair=pair, a_eff=a_eff)


def admissible_a(curve: DiscreteCurve, tol: float = 1e-3) -> float:
    """Smallest a >= 0 (to relative tol) with min_Z(curve, (a, 0)) >= 0.

    min_Z is nondecreasing in a (phi is strictly decreasing in a), so plain
    bisection applies after geometric bracket expansion. Raises
    NotAdmissible if even a = 1e6 fails, which at discrete resolution
    signals a curve too close to self-touching.

    Since phi(z; a) <= phi(z; 0), a pair's gap at any a is at least its gap
    at a = 0: only pairs below the profile at a = 0 can keep min_Z
    negative, so one pass collects them and the bisection runs on those
    alone. Pairs within FILTER_SLACK * L above it are kept too, as rounding
    of arctan can lift the profile by a few ulp.
    """
    length = curve.length
    d_low, c_low = [], []
    lowest = math.inf
    for _, _, d, z in _chords(curve, 2):
        c = barrier.phi(z, 0.0)
        gaps = d - length * c
        lowest = min(lowest, float(np.min(gaps)))
        low = gaps < FILTER_SLACK * length
        d_low.append(d[low])
        c_low.append(c[low])
    if lowest >= 0.0:
        return 0.0
    d, c = np.concatenate(d_low), np.concatenate(c_low)

    def admits(a: float) -> bool:
        return float(np.min(d - length * barrier.phi_of_c(c, a))) >= 0.0

    hi = 1.0
    while not admits(hi):
        hi *= 2.0
        if hi > ADMISSIBLE_A_CAP:
            raise NotAdmissible(
                f"no admissible barrier parameter up to {ADMISSIBLE_A_CAP:.0e}")
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if admits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def cubic_fit(prof: ChordArcProfile, min_spacings: float = 16.0) -> float:
    """Least-squares cubic coefficient of the small-separation profile.

    Fits psi(ell) = ell - c*ell^3 over (roughly) the smallest decade of ell
    and returns c, the quantity to compare with (max kappa^2 + 1)/24. Bins
    closer to the diagonal than ~16 mean vertex spacings are skipped: there
    the polygon chord equals the polygon arc by construction (exactly, for
    adjacent vertices) and would bias c towards zero. The window is capped
    at z = 1/4 to keep the neglected ell^5 term small.
    """
    valid = ~prof.empty_bins
    if int(np.count_nonzero(valid)) < 8:
        raise InsufficientData("profile has fewer than 8 nonempty bins")
    ell = prof.pair_z[valid] * prof.L
    psi = prof.psi[valid]
    lo = max(float(np.min(ell)), min_spacings * prof.mean_spacing)
    hi = min(10.0 * lo, 0.25 * prof.L)
    sel = (ell >= lo) & (ell <= hi)
    if int(np.count_nonzero(sel)) < 8:
        raise InsufficientData(
            f"only {int(np.count_nonzero(sel))} bins in the fit window [{lo:.3g}, {hi:.3g}]")
    x = ell[sel]
    y = psi[sel]
    return float(np.sum(x ** 3 * (x - y)) / np.sum(x ** 6))
