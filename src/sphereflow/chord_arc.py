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
from .sphere_geometry import DiscreteCurve, _cyclic_shifts, _gap_blocks, _gap_pairs

ADMISSIBLE_A_CAP = 1e6
FILTER_SLACK = 1e-14           # relative to L, see min_Z and admissible_a
# profile bins z by arithmetic, guarded by _BIN_GUARD * n_bins (see
# _bin_index). The guard's bound needs 2 n_bins and every edge index to be
# exact doubles, and keeps the guarded band below 2^-10 of a bin up to here.
_BIN_GUARD = 4.0 * np.finfo(float).eps
PROFILE_MAX_BINS = 1 << 40


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


def _chords(curve: DiscreteCurve, k_min: int):
    """Yield (k, d, z) per block of cyclic index gaps (see _gap_blocks).

    d is the chord and z the separation of each pair in the block. The arc
    |s_{(i+k) mod n} - s_i| is s[j] - s[i] for the pair taken as i < j, bit
    for bit, so z is what _separation gives.

    d is _gap_blocks' buffer, square-rooted in place, and z is written into
    buffers allocated once per call too: both are valid only until the next
    block is requested.
    """
    s = curve.cum_lengths[:-1]
    length = curve.length
    s_shifted = _cyclic_shifts(s)
    z_buf = far_buf = None
    for k, d2 in _gap_blocks(curve.points, k_min):
        if z_buf is None:
            z_buf, far_buf = np.empty_like(d2), np.empty_like(d2)
        z, far = z_buf[:k.size], far_buf[:k.size]
        np.subtract(s_shifted[k[0]:k[-1] + 1], s, out=z)
        np.abs(z, out=z)
        np.subtract(length, z, out=far)
        np.minimum(z, far, out=z)
        z /= length
        yield k, np.sqrt(d2, out=d2), z


def _bin_index(z: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin k of each z in [0, 1/2] with edges[k] < z <= edges[k + 1].

    This is searchsorted(edges, z, side="left") - 1 for edges =
    linspace(0, 1/2, m + 1), taken from t = z * 2m by truncation where t is
    not within _BIN_GUARD * m of an integer, and from searchsorted where it is.
    z = 0 is such a z (t = 0) and gets -1, as from searchsorted.

    Why the guard holds, with u = 2^-53 the unit roundoff: linspace makes
    edges[k] = fl(k * fl(0.5/m)) = (k/2m)(1 + d1)(1 + d2), edges[m] = 1/2,
    so 2m edges[k] lies within 3ku <= 3mu of k (2m and k are exact doubles).
    t = fl(z * 2m) = 2mz(1 + d3) lies within about mu of 2mz, and
    t - floor(t) is exact. So if k + g <= t <= k + 1 - g with g > 4mu, then
    2m edges[k] < 2mz <= 2m edges[k + 1]: z is in bin k = floor(t).
    _BIN_GUARD * m = 8mu is twice that, which also covers the u or so that
    the test below rounds by (f - 0.5 is exact for f = t - floor(t) >= 1/4).
    """
    m = edges.size - 1
    t = z * (2.0 * m)
    idx = t.astype(np.intp)
    t -= idx                         # t - floor(t), in place
    t -= 0.5
    np.abs(t, out=t)
    near = np.flatnonzero(t >= 0.5 - _BIN_GUARD * m)
    if near.size:
        idx.flat[near] = np.searchsorted(edges, z.flat[near], side="left") - 1
    return idx


def profile(curve: DiscreteCurve, n_bins: int) -> ChordArcProfile:
    """Exact pairwise minimum chord per z-bin, bins (k/2m, (k+1)/2m].

    Each bin records, of the pairs i < j that attain its minimum, the first
    in (i, j) order. O(n^2) time, O(n + block) memory.

    Every pair has z in [0, 1/2]: min(arc, L - arc) <= L/2 holds after
    rounding. z = 0 only where the cumulative arclength stalls, which
    segments of at least 1e-14 (_segment_lengths) allow only for L of 128
    or more; such a pair lies in no bin, and _bin_index gives it -1, which
    lands in a spare last slot of the block arrays that is dropped. So only
    the repeated half of gap n/2 (the last entries of the last block) is cut.
    """
    if not 16 <= n_bins <= PROFILE_MAX_BINS:
        raise PreconditionViolation(
            f"need 16 to {PROFILE_MAX_BINS} bins, got {n_bins}")
    edges = np.linspace(0.0, 0.5, n_bins + 1)
    n = curve.n
    no_pair = n * n                  # pair (i, j) has key i * n + j < n^2
    psi = np.full(n_bins, np.inf)
    key = np.full(n_bins, no_pair)

    for k, d, z in _chords(curve, 1):
        idx, d = _bin_index(z, edges).ravel(), d.ravel()
        if 2 * k[-1] == n:           # the repeated half of gap n/2
            idx, d = idx[:-(n // 2)], d[:-(n // 2)]
        block_min = np.full(n_bins + 1, np.inf)  # idx -1 (z = 0) is slot n_bins
        np.minimum.at(block_min, idx, d)
        hit = np.flatnonzero(d == block_min[idx])
        i, j = _gap_pairs(n, k, hit)
        block_key = np.full(n_bins + 1, no_pair)
        np.minimum.at(block_key, idx[hit], i * n + j)
        block_min, block_key = block_min[:-1], block_key[:-1]
        better = (block_min < psi) | ((block_min == psi) & (block_key < key))
        psi[better] = block_min[better]
        key[better] = block_key[better]

    empty = key == no_pair
    pair_i = np.where(empty, -1, key // n)
    pair_j = np.where(empty, -1, key % n)
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

    On ties the first pair i < j in (i, j) order is reported.

    Only the pairs that a bound per cyclic gap k cannot rule out get their
    exact gap. With e_i = s_i - i L/n, the drift of the arclength from
    uniform, every pair at gap k has |z - k/n| <= dz = (max e - min e)/L,
    and phi increases on [0, 1/2]; so its gap lies between d - L phi(z_hi)
    and d - L phi(z_lo) for z_lo, z_hi = k/n -+ dz. The shortest chord at
    each gap then bounds min Z from above, and a pair can attain the minimum
    only if d <= bound + L phi(z_hi). FILTER_SLACK * L on the bound and on
    the cut covers rounding. On the resampled curves of a flow run dz is
    1e-15 to 1e-14, and about n pairs, not n^2/2, get an exact gap.
    """
    a_eff = params.a_eff
    n, length = curve.n, curve.length
    s = curve.cum_lengths
    drift = s[:-1] - np.arange(n) * (length / n)
    dz = float(np.max(drift) - np.min(drift)) / length
    slack = FILTER_SLACK * length
    bound = value = math.inf
    key = -1
    for k, d2 in _gap_blocks(curve.points, 2):
        z = k / n
        d2_min = np.min(d2, axis=1)
        shortest = np.sqrt(d2_min) - length * barrier.phi(np.maximum(z - dz, 0.0), a_eff)
        bound = min(bound, float(np.min(shortest)) + slack)
        reach = bound + length * barrier.phi(np.minimum(z + dz, 0.5), a_eff) + slack
        reach2 = np.where(reach > 0.0, reach * reach, -1.0)
        live = np.flatnonzero(d2_min <= reach2)
        if live.size == 0:
            continue
        r, i = np.nonzero(d2[live] <= reach2[live, None])
        flat = live[r] * n + i
        i, j = _gap_pairs(n, k, flat)
        gaps = np.sqrt(d2.ravel()[flat]) - length * barrier.phi(_separation(curve, i, j), a_eff)
        best = gaps.min()
        best_key = int((i * n + j)[gaps == best].min())
        if best < value or (best == value and best_key < key):
            value, key = float(best), best_key
    return ZReport(min_value=value, pair=divmod(key, n), a_eff=a_eff)


def admissible_a(curve: DiscreteCurve, tol: float = 1e-3) -> float:
    """Smallest a >= 0 (to relative tol) with min_Z(curve, (a, 0)) >= 0.

    min_Z is nondecreasing in a (phi is strictly decreasing in a), so plain
    bisection applies after geometric bracket expansion. Raises
    NotAdmissible if even a = 1e6 fails, which at discrete resolution
    signals a curve too close to self-touching.

    Since phi(z; a) <= phi(z; 0), a pair's gap at any a is at least its gap
    at a = 0: only pairs below the profile at a = 0 can keep min_Z
    negative, so one pass collects them and the bisection runs on those
    alone. Each trial a that fails drops the pairs whose gap there exceeds
    FILTER_SLACK * L, as every later trial is larger. Pairs within that
    slack are kept, as rounding of arctan can lift the profile by a few ulp.
    """
    length = curve.length
    slack = FILTER_SLACK * length
    d_low, c_low = [], []
    lowest = math.inf
    for _, d, z in _chords(curve, 2):
        c = barrier.phi(z, 0.0)
        gaps = d - length * c
        lowest = min(lowest, float(np.min(gaps)))
        low = gaps < slack
        d_low.append(d[low])
        c_low.append(c[low])
    if lowest >= 0.0:
        return 0.0
    d, c = np.concatenate(d_low), np.concatenate(c_low)

    def admits(a: float) -> bool:
        nonlocal d, c
        gaps = d - length * barrier.phi_of_c(c, a)
        if float(np.min(gaps)) >= 0.0:
            return True
        keep = gaps <= slack
        d, c = d[keep], c[keep]
        return False

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
