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
from numpy.lib.stride_tricks import sliding_window_view

from . import barrier
from .errors import InsufficientData, NotAdmissible, PreconditionViolation
from .sphere_geometry import DiscreteCurve, _cyclic_shifts, _gap_blocks, _gap_pairs, curvature_rows

ADMISSIBLE_A_CAP = 1e6
FILTER_SLACK = 1e-14           # relative to L, see min_Z and _run_binner
# _run_binner's single-bin test keeps a run _BIN_GUARD * n_bins inside both
# edges of its bin. Its proof and _bin_index's need 2 n_bins and every edge
# index to be exact doubles; up to here the guarded band stays below 2^-10
# of a bin, and _bin_index's bound 6 n_bins u < 1/2 holds by far.
_BIN_GUARD = 4.0 * np.finfo(float).eps
PROFILE_MAX_BINS = 1 << 40
# profile takes each gap row in runs of this many consecutive vertices; a
# power of two, for the halving tree of the run minima
_RUN = 8
_NO_PAIR = np.iinfo(np.intp).max   # profile's key of a bin that no pair reached


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
    def empty_bins(self) -> np.ndarray:
        return np.isnan(self.psi)


def _separation(curve: DiscreteCurve, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Normalised shorter-arc separation z = ell/L of vertex pairs (i, j)."""
    s = curve.cum_lengths
    s_j, s_i = s[j], s[i]            # fresh gathers, so they can take z and far
    return _gap_separation(s_j, s_i, curve.length, s_j, s_i)


def _gap_separation(s_rows: np.ndarray, s: np.ndarray, length: float,
                    z: np.ndarray, far: np.ndarray) -> np.ndarray:
    """z = min(arc, L - arc)/L into z, from arc = |s_rows - s|; far is scratch."""
    np.subtract(s_rows, s, out=z)
    np.abs(z, out=z)
    np.subtract(length, z, out=far)
    np.minimum(z, far, out=z)
    z /= length
    return z


def _bin_index(z: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin k of each z in [0, 1/2] with edges[k] < z <= edges[k + 1].

    This is searchsorted(edges, z, side="left") - 1 for edges =
    linspace(0, 1/2, m + 1), from one comparison with the nearest edge:
    e = trunc(2m z + 1/2), and the bin is e - (z <= edges[e]). z = 0 gets
    e = 0 and then -1, as from searchsorted; z = 1/2 gets e = m and then
    m - 1.

    Why, with u = 2^-53 the unit roundoff: linspace makes edges[k] =
    fl(k * fl(0.5/m)) = (k/2m)(1 + d1)(1 + d2), edges[m] = 1/2, so
    2m edges[k] lies within 3ku <= 3mu of k (2m and k are exact doubles).
    A z in bin k thus has k - 3mu < 2m z <= k + 1 + 3mu, and
    fl(fl(2m z) + 1/2), within 3mu of 2m z + 1/2 and never negative,
    truncates to k or k + 1 while 6mu < 1/2. Either way the comparison
    gives k.
    """
    m = edges.size - 1
    e = (z * (2.0 * m) + 0.5).astype(np.intp)
    e -= z <= edges[e]
    return e


def _run_binner(curve: DiscreteCurve, n_bins: int, w: int):
    """Return run_bins(k) -> (b, single) over the runs i = q w .. q w + w - 1
    of the _gap_blocks rows k. Every pair of a run with single set has its z
    in bin b.

    With h = fl(L/n), S_p = s_p (p < n) or s_{p-n} + L (p >= n) and the
    drift E_p = S_p - p h, the pair (i, i + k) has the unfolded separation
    U = (S_{i+k} - S_i)/L, and its z is min(U, 1 - U) whether i + k wraps
    or not. For i = q w + r and p = k + q w, S_{i+k} - S_i =
    (E_{p+r} + p h) - (E_{qw+r} + q w h), so over the run U lies between
    (J_lo[p] - I_hi[q])/L and (J_hi[p] - I_lo[q])/L, where J_lo[p] =
    min(E_p .. E_{p+w-1}) + p h, J_hi takes the max, and I[q] = J[q w].
    The window extremes are taken once per call, by halving, and each block
    reads J through strided views. In t = 2m z, the bounds are scaled by
    c = fl(2m/L), folded at m (t_lo = min(T_lo, 2m - T_hi), t_hi =
    min(T_hi, m)) and widened by 2m FILTER_SLACK. With b = trunc(t_lo) and
    g = _BIN_GUARD * m = 8mu, the run is single-bin if b + g <= t_lo and
    t_hi <= b + 1 - g.

    Why, with u = 2^-53: S_p < 2L and p h < 1.5L, so |E_p| < 2L, |J| < 3.5L
    and |J - I| < 7L. Relative to L, the computed e_p is within 5.5u of
    E_p (S_p, p h and their difference round), the window extremes are
    exact, J adds 5u (p h and the sum), and J - I rounds by 7u: 28u in all.
    Scaling by c rounds twice, 14u of 2m for |J - I| < 7L, and the fold
    (at most 16m) and the slack add 8u of 2m each, so t_lo and t_hi are
    within 2m 58u of 2m times the exact folded bounds. A pair's z (as
    profile takes it: two subtractions of at most L and a division) is
    within 3u of its exact value. 2m FILTER_SLACK = 2m 1e-14 > 2m 62u, so
    every pair of the run has 2m z in [t_lo, t_hi]. linspace makes
    edges[k] = fl(k * fl(0.5/m)), so 2m edges[k] lies within 3ku <= 3mu of
    k (2m and k are exact doubles). A single-bin run thus has
    2m edges[b] < b + g <= 2m z <= b + 1 - g < 2m edges[b + 1] for each of
    its pairs: g = 8mu exceeds 3mu by more than the u or so that g and
    1 - g round by. t_lo - b and t_hi - b are exact where the test can pass
    (Sterbenz), and for t_lo < 0 trunc rounds up and the test fails. The
    test gives b <= m - 1, as t_lo <= m - 2m FILTER_SLACK.
    """
    n, length = curve.n, curve.length
    runs = n // w
    if runs == 0:                    # n < w: every pair is in the tail
        return lambda k: (np.zeros((k.size, 0), dtype=np.intp),
                          np.zeros((k.size, 0), dtype=bool))
    s = curve.cum_lengths[:-1]
    h = length / n
    ph = np.arange(n + n // 2) * h
    e = np.concatenate([s, s[:n // 2] + length]) - ph
    e_lo, e_hi, width = e, e, 1
    while width < w:                 # extremes over [p, p + 2 width)
        e_lo = np.minimum(e_lo[:-width], e_lo[width:])
        e_hi = np.maximum(e_hi[:-width], e_hi[width:])
        width *= 2
    j_lo, j_hi = e_lo + ph[:e_lo.size], e_hi + ph[:e_hi.size]
    span = (runs - 1) * w + 1
    i_lo, i_hi = j_lo[:span:w], j_hi[:span:w]
    j_lo = sliding_window_view(j_lo, span)[:, ::w]   # row p: windows at p + q w
    j_hi = sliding_window_view(j_hi, span)[:, ::w]
    two_m = 2.0 * n_bins
    scale = two_m / length
    slack = FILTER_SLACK * two_m
    guard = _BIN_GUARD * n_bins

    def run_bins(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = slice(k[0], k[-1] + 1)
        t_hi = j_hi[rows] - i_lo
        t_hi *= scale
        t_lo = j_lo[rows] - i_hi
        t_lo *= scale
        np.minimum(t_lo, two_m - t_hi, out=t_lo)
        t_lo -= slack
        np.minimum(t_hi, float(n_bins), out=t_hi)
        t_hi += slack
        b = t_lo.astype(np.intp)
        t_lo -= b
        t_hi -= b
        return b, (t_lo >= guard) & (t_hi <= 1.0 - guard)

    return run_bins


def _run_positions(r: np.ndarray, runs: int, w: int, n: int) -> np.ndarray:
    """Flat (row, i) positions, shape (r.size, w), of runs r of a (rows, runs) array."""
    row, q = np.divmod(r, runs)
    return (row * n + q * w)[:, None] + np.arange(w)


def _fold_in(psi: np.ndarray, key: np.ndarray, d: np.ndarray, idx: np.ndarray,
             pairs_at) -> None:
    """Merge candidate chords d in bins idx into psi and key, in place.

    idx -1 is a spare slot that is dropped. pairs_at(hit, best) returns the
    bins and keys i * n + j of the pairs i < j behind the candidates hit
    that attain their bin's minimum best. A bin takes the smaller chord,
    and of equal chords the smaller key: the first pair in (i, j) order.
    A chord of +inf (the repeated half of gap n/2, see _gap_blocks) is no
    candidate.
    """
    best = np.full(psi.size + 1, np.inf)
    np.minimum.at(best, idx, d)
    hit = np.flatnonzero(d == best[idx])
    bins, keys = pairs_at(hit[d[hit] < np.inf], best)
    first = np.full(psi.size + 1, _NO_PAIR)
    np.minimum.at(first, bins, keys)
    best, first = best[:-1], first[:-1]
    better = (best < psi) | ((best == psi) & (first < key))
    psi[better] = best[better]
    key[better] = first[better]


def _row_index(mask: np.ndarray):
    """Index of the rows where mask is set; a slice (a view, no copy) if all are."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _fold_run_rows(psi, key, k, d2, bins, single, curve, edges, w) -> None:
    """Fold rows k of a gap block into psi and key, a run of w at a time.

    A single-bin run gives one candidate, its minimum d^2 (a halving tree of
    np.minimum over strided slices) square-rooted; the pairs of the other
    runs and of the tail of n mod w are gathered and binned one by one.
    """
    n = curve.n
    runs = bins.shape[1]
    run_min = np.minimum(d2[:, 0:runs * w:2], d2[:, 1:runs * w:2])
    while run_min.shape[1] > runs:
        run_min = np.minimum(run_min[:, 0::2], run_min[:, 1::2])
    won = np.flatnonzero(single)
    run_bin = bins.ravel()[won]

    def run_pairs(hit, best):        # the pairs of a hit run that attain best
        pos = _run_positions(won[hit], runs, w, n)
        at = np.sqrt(d2.ravel()[pos]) == best[run_bin[hit]][:, None]
        i, j = _gap_pairs(n, k, pos[at])
        return np.broadcast_to(run_bin[hit][:, None], pos.shape)[at], i * n + j

    _fold_in(psi, key, np.sqrt(run_min.ravel()[won]), run_bin, run_pairs)

    pos = [_run_positions(np.flatnonzero(~single), runs, w, n).ravel()]
    if runs * w < n:
        pos.append(((np.arange(k.size) * n)[:, None] + np.arange(runs * w, n)).ravel())
    pos = np.concatenate(pos)
    if pos.size == 0:
        return
    row, i = np.divmod(pos, n)
    j = i + k[row]
    np.subtract(j, n, out=j, where=j >= n)
    idx = _bin_index(_separation(curve, i, j), edges)

    def pairs_at(hit, best):
        i, j = _gap_pairs(n, k, pos[hit])
        return idx[hit], i * n + j

    _fold_in(psi, key, np.sqrt(d2.ravel()[pos]), idx, pairs_at)


def _fold_pair_rows(psi, key, k, d2, z, edges) -> None:
    """Fold rows k of a gap block into psi and key pair by pair; z are the
    pairs' separations, and d2 is square-rooted in place."""
    n = d2.shape[1]
    idx = _bin_index(z, edges).ravel()

    def pairs_at(hit, best):
        i, j = _gap_pairs(n, k, hit)
        return idx[hit], i * n + j

    _fold_in(psi, key, np.sqrt(d2, out=d2).ravel(), idx, pairs_at)


def profile(curve: DiscreteCurve, n_bins: int) -> ChordArcProfile:
    """Exact pairwise minimum chord per z-bin, bins (k/2m, (k+1)/2m].

    Each bin records, of the pairs i < j that attain its minimum, the first
    in (i, j) order. O(n^2) time, O(n + block) memory.

    Every pair has z in [0, 1/2]: min(arc, L - arc) <= L/2 holds after
    rounding. z = 0 only where the cumulative arclength stalls, which
    segments of at least 1e-14 (_segment_lengths) allow only for L of 128
    or more; such a pair lies in no bin, and _bin_index gives it -1, which
    lands in the spare slot of _fold_in.

    Each row of a gap block is cut into runs of _RUN consecutive i, whose
    z-ranges _run_binner bounds. A run is single-bin when its range lies in
    one bin, at least _BIN_GUARD * m inside both edges. A row whose runs
    are mostly single-bin goes to _fold_run_rows: a single-bin run
    contributes only its minimum chord, and the other pairs are gathered.
    Every other row goes to _fold_pair_rows, pair by pair as a whole row.
    (On a resampled curve at n = 512 every gap sits on a bin edge, so every
    row goes pair by pair there.) A gathered pair and a pair of a whole row
    both get their bin from _bin_index. A gathered pair costs about twice a
    pair of a whole row, so a row with fewer single-bin runs gains nothing
    from them.

    Ties: a run whose minimum attains its bin's minimum has its pairs'
    chords recomputed, and every pair attaining it is a candidate for the
    first pair. The repeated half of gap n/2 is +inf (see _gap_blocks), and
    _fold_in takes no infinite chord as a candidate.
    """
    if not 16 <= n_bins <= PROFILE_MAX_BINS:
        raise PreconditionViolation(
            f"need 16 to {PROFILE_MAX_BINS} bins, got {n_bins}")
    edges = np.linspace(0.0, 0.5, n_bins + 1)
    n, length = curve.n, curve.length
    w = _RUN
    s = curve.cum_lengths[:-1]
    s_shifted = _cyclic_shifts(s)
    run_bins = _run_binner(curve, n_bins, w)
    psi = np.full(n_bins, np.inf)
    key = np.full(n_bins, _NO_PAIR)
    z_buf = far_buf = None
    for k, d2 in _gap_blocks(curve.rows, 1):
        bins, single = run_bins(k)
        by_run = 2 * np.count_nonzero(single, axis=1) > bins.shape[1]
        if by_run.any():
            r = _row_index(by_run)
            _fold_run_rows(psi, key, k[r], d2[r], bins[r], single[r], curve, edges, w)
        if not by_run.all():
            r = _row_index(~by_run)
            if z_buf is None:
                z_buf, far_buf = np.empty_like(d2), np.empty_like(d2)
            rows = k[r].size
            z = _gap_separation(s_shifted[k[0]:k[-1] + 1][r], s, length,
                                z_buf[:rows], far_buf[:rows])
            _fold_pair_rows(psi, key, k[r], d2[r], z, edges)

    empty = key == _NO_PAIR
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


def min_Z(curve: DiscreteCurve, params: barrier.BarrierParams) -> float:
    """Minimum gap d - L*phi(ell/L; a_eff) over pairs at cyclic distance >= 2.

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
    for k, d2 in _gap_blocks(curve.rows, 2):
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
        value = min(value, float(gaps.min()))
    return value


def admissible_a(curve: DiscreteCurve, tol: float = 1e-3) -> float:
    """Smallest a >= 0 (to relative tol) with min_Z(curve, (a, 0)) >= 0.

    min_Z is nondecreasing in a (phi is strictly decreasing in a), so a
    curve admitted at a = 0 takes one min_Z pass, and any other curve gets
    plain bisection after geometric bracket expansion. Raises NotAdmissible
    if even a = ADMISSIBLE_A_CAP fails, which at discrete resolution
    signals a curve too close to self-touching.
    """
    def admits(a: float) -> bool:
        return min_Z(curve, barrier.BarrierParams(a)) >= 0.0

    if admits(0.0):
        return 0.0
    hi = 1.0
    while not admits(hi):
        hi *= 2.0
        if hi > ADMISSIBLE_A_CAP:
            raise NotAdmissible(
                f"no admissible barrier parameter up to {ADMISSIBLE_A_CAP:g}")
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if admits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def resolve_a(curve: DiscreteCurve, tol: float = 1e-3) -> tuple[float, float]:
    """(a_pairs, a_curv): the smallest a that the vertex pairs admit
    (admissible_a), and the smallest that the curvature bound at tau = 0
    admits. The bound is Z >= 0 in the limit y -> x, which pairs at cyclic gap
    m >= 2 cannot see: they see 1 - 1/m^2 of the curvature in ell - d. A run
    takes the larger part."""
    kmax = float(np.maximum.reduce(np.abs(curvature_rows(curve)[2])))
    return admissible_a(curve, tol), barrier.curvature_a(kmax * kmax + 1.0, curve.length)


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
