"""Row-block pairwise passes: the upper-triangle walk the cyclic-gap kernel replaced.

Test oracles only. Each function walks the pairs i < j in row blocks and
evaluates every pair with the same per-pair arithmetic as the package, so
the package's profile, min_Z, admissible_a and validate_simple must agree
with these bit for bit.
"""

import math

import numpy as np

from sphereflow import barrier
from sphereflow.chord_arc import ADMISSIBLE_A_CAP, FILTER_SLACK, ChordArcProfile
from sphereflow.sphere_geometry import _arc_intersections

BLOCK_ENTRIES = 1 << 16


def pair_blocks(points, min_gap):
    """Yield (rows, cols, d2) over pairs i < j at cyclic gap >= min_gap.

    rows has shape (r, 1), cols shape (1, w); entries outside the pair set
    are +inf. Blocks come in row order, so row-major order is (i, j) order.
    """
    n = points.shape[0]
    x, y, z = (np.ascontiguousarray(points[:, k]) for k in range(3))
    i0 = 0
    while i0 + min_gap < n:
        j0 = i0 + min_gap
        width = n - j0
        i1 = min(n - min_gap, i0 + max(1, min(BLOCK_ENTRIES // width, width // 8)))
        rows = np.arange(i0, i1)[:, None]
        cols = np.arange(j0, n)[None, :]
        d2 = x[i0:i1, None] - x[None, j0:]
        d2 *= d2
        for coord in (y, z):
            diff = coord[i0:i1, None] - coord[None, j0:]
            diff *= diff
            d2 += diff
        gap = cols - rows
        np.putmask(d2, (gap < min_gap) | (gap > n - min_gap), np.inf)
        yield rows, cols, d2
        i0 = i1


def separation(curve, i, j):
    s = curve.cum_lengths
    length = curve.length
    arc = s[j] - s[i]
    return np.minimum(arc, length - arc) / length


def chords(curve, min_gap):
    for rows, cols, d2 in pair_blocks(curve.points, min_gap):
        yield rows, cols, np.sqrt(d2), separation(curve, rows, cols)


def profile(curve, n_bins):
    edges = np.linspace(0.0, 0.5, n_bins + 1)
    psi = np.full(n_bins, np.inf)
    pair_i = np.full(n_bins, -1, dtype=int)
    pair_j = np.full(n_bins, -1, dtype=int)
    for rows, cols, d, z in chords(curve, 1):
        idx = np.searchsorted(edges, z, side="left") - 1
        pos = np.flatnonzero((idx >= 0) & (idx < n_bins))
        idx, d = idx.ravel()[pos], d.ravel()[pos]
        block_min = np.full(n_bins, np.inf)
        np.minimum.at(block_min, idx, d)
        hit = d == block_min[idx]
        bins, first = np.unique(idx[hit], return_index=True)
        better = block_min[bins] < psi[bins]
        bins, win = bins[better], pos[hit][first[better]]
        psi[bins] = block_min[bins]
        pair_i[bins] = rows[win // cols.size, 0]
        pair_j[bins] = cols[0, win % cols.size]
    empty = pair_i < 0
    psi[empty] = np.nan
    pair_z = np.full(n_bins, np.nan)
    pair_z[~empty] = separation(curve, pair_i[~empty], pair_j[~empty])
    centers = 0.5 * (edges[:-1] + edges[1:])
    return ChordArcProfile(z_centers=centers, psi=psi, pair_i=pair_i, pair_j=pair_j,
                           pair_z=pair_z, L=curve.length, mean_spacing=curve.length / curve.n)


def min_Z(curve, params):
    a_eff = params.a_eff
    length = curve.length
    value = math.inf
    for rows, cols, d, z in chords(curve, 2):
        gaps = d - length * barrier.phi(z, a_eff)
        value = min(value, float(np.min(gaps)))
    return value


def admissible_a(curve, tol=1e-3):
    """Bisection over the pairs below the a = 0 profile, none dropped on the way."""
    length = curve.length
    d_low, c_low = [], []
    lowest = math.inf
    for _, _, d, z in chords(curve, 2):
        c = barrier.phi(z, 0.0)
        gaps = d - length * c
        lowest = min(lowest, float(np.min(gaps)))
        low = gaps < FILTER_SLACK * length
        d_low.append(d[low])
        c_low.append(c[low])
    if lowest >= 0.0:
        return 0.0
    d, c = np.concatenate(d_low), np.concatenate(c_low)

    def admits(a):
        return float(np.min(d - length * barrier.phi_of_c(c, a))) >= 0.0

    hi = 1.0
    while not admits(hi):
        hi *= 2.0
        if hi > ADMISSIBLE_A_CAP:
            raise AssertionError("no admissible a")
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if admits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def simple_candidates(curve):
    """Segment pairs (i, j) that pass the midpoint prefilter, in (i, j) order."""
    p = curve.points
    q = np.roll(p, -1, axis=0)
    mids = 0.5 * (p + q)
    ds = curve.seg_lengths
    ii, jj = [], []
    for rows, cols, d2 in pair_blocks(mids, 2):
        reach = 0.5 * (ds[rows] + ds[cols]) + 1e-9
        r, c = np.nonzero(d2 <= reach * reach)
        ii.append(rows[r, 0])
        jj.append(cols[0, c])
    return np.concatenate(ii), np.concatenate(jj)


def validate_simple(curve):
    ii, jj = simple_candidates(curve)
    if ii.size == 0:
        return True
    p = curve.points
    q = np.roll(p, -1, axis=0)
    return not bool(np.any(_arc_intersections(p[ii], q[ii], p[jj], q[jj])))
