import math
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
import row_block_reference as row_blocks

from conftest import assert_reaped, ignores_sigint, needs_two_cpus
from sphereflow import barrier, chord_arc, flow_engine, generators, worker
from sphereflow import sphere_geometry as sg
from sphereflow.barrier import BarrierParams
from sphereflow.errors import InsufficientData, NotAdmissible, PreconditionViolation


@pytest.fixture(scope="module")
def perturbed():
    return generators.fourier_perturbed_curve((0, 0, 1), [2], [0.2], 256)


class TestProfile:
    def test_parallel_matches_sine_profile(self):
        # continuum parallels: psi(z) = (L/pi) sin(pi z); the discrete minimum
        # sits a factor (1 - O(n^-2)) below
        n = 512
        c = generators.parallel_curve(np.pi / 3, n)
        prof = chord_arc.profile(c, 64)
        keep = ~prof.empty_bins
        target = prof.L / np.pi * np.sin(np.pi * prof.pair_z[keep])
        assert np.max(np.abs(prof.psi[keep] - target)) < 10.0 * prof.L / n ** 2

    def test_equator_antipodal_bin(self):
        # the last bin covers z in (1/2 - 1/128, 1/2]; its minimum chord is
        # 2 sin(pi z_low) >= 2 - 2e-3, approaching the antipodal chord 2
        prof = chord_arc.profile(generators.great_circle_curve((0, 0, 1), 256), 64)
        assert abs(prof.psi[-1] - 2.0) < 2e-3

    def test_chord_below_arc(self, perturbed):
        prof = chord_arc.profile(perturbed, 64)
        keep = ~prof.empty_bins
        assert np.all(prof.psi[keep] <= prof.L * prof.pair_z[keep] + 1e-12)

    def test_matches_brute_force(self):
        # the definition, as a plain double loop
        c = generators.fourier_perturbed_curve((0, 0, 1), [2], [0.3], 64, seed=1)
        prof = chord_arc.profile(c, 16)
        s, L = c.cum_lengths, c.length
        edges = np.linspace(0.0, 0.5, 17)
        oracle = np.full(16, np.nan)
        for i in range(64):
            for j in range(i + 1, 64):
                d = float(np.linalg.norm(c.points[i] - c.points[j]))
                arc = s[j] - s[i]
                z = min(arc, L - arc) / L
                k = int(np.searchsorted(edges, z, side="left")) - 1
                if 0 <= k < 16 and (np.isnan(oracle[k]) or d < oracle[k]):
                    oracle[k] = d
        assert np.allclose(prof.psi, oracle, atol=1e-10, equal_nan=True)

    def test_bin_refinement(self, perturbed):
        coarse = chord_arc.profile(perturbed, 32)
        fine = chord_arc.profile(perturbed, 64)
        for k in range(32):
            children = fine.psi[2 * k:2 * k + 2]
            children = children[~np.isnan(children)]
            if children.size and not np.isnan(coarse.psi[k]):
                assert coarse.psi[k] <= np.min(children) + 1e-10

    def test_min_bins(self, perturbed):
        with pytest.raises(PreconditionViolation):
            chord_arc.profile(perturbed, 8)

    def test_max_bins(self, perturbed):
        with pytest.raises(PreconditionViolation):
            chord_arc.profile(perturbed, chord_arc.PROFILE_MAX_BINS + 1)

    def test_arclength_that_does_not_increase(self):
        c = stalled_curve()
        assert c.seg_lengths.min() >= 1e-14
        assert np.any(np.diff(c.cum_lengths) == 0.0)
        for bins in (16, 100):
            got, want = chord_arc.profile(c, bins), row_blocks.profile(c, bins)
            for name in ("psi", "pair_i", "pair_j", "pair_z", "z_centers"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def stalled_curve():
    """40 near-antipodal jumps make L about 160, where a 1.2e-14 segment is
    below half an ulp of s and the cumulative arclength stalls: the pair
    across it has z = 0 and falls in no bin."""
    u = 0.05 * np.arange(80)
    pts = np.column_stack([np.cos(u), np.sin(u), 0.01 * np.cos(3 * u)])
    pts[1::2] *= -1.0
    p = pts[75] / np.linalg.norm(pts[75])
    t = np.cross(p, (0.0, 0.0, 1.0))
    pts[76] = p + 1.2e-14 * t / np.linalg.norm(t)
    return sg.make_curve(pts)


BIN_COUNTS = (16, 17, 100, 256, 1000, 1023, 4096, (1 << 20) + 3)


class TestBinIndex:
    """_bin_index against searchsorted, where the nearest edge has to absorb rounding."""

    @staticmethod
    def expect(z, edges):
        return np.searchsorted(edges, z, side="left") - 1

    @pytest.mark.parametrize("m", BIN_COUNTS)
    def test_at_and_beside_every_edge(self, m):
        edges = np.linspace(0.0, 0.5, m + 1)
        z = np.concatenate([edges[1:], np.nextafter(edges[1:], 0.0),
                            np.nextafter(edges[:-1], 1.0), [0.5, 1e-300, 0.0]])
        assert np.all((z >= 0.0) & (z <= 0.5))
        got = chord_arc._bin_index(z.reshape(1, -1), edges).ravel()
        assert np.array_equal(got, self.expect(z, edges))

    @pytest.mark.parametrize("m", BIN_COUNTS)
    def test_random(self, m):
        edges = np.linspace(0.0, 0.5, m + 1)
        z = 0.5 - np.random.default_rng(m).uniform(0.0, 0.5, size=(100, 1000))
        assert np.array_equal(chord_arc._bin_index(z, edges), self.expect(z, edges))

    @pytest.mark.parametrize("m", BIN_COUNTS)
    def test_separations_off_the_edges(self, m):
        # edges times rational factors near 1, so t lands just off integers
        edges = np.linspace(0.0, 0.5, m + 1)
        z = np.concatenate([edges[1:] * (1 + f) for f in (1e-16, -1e-16, 3e-16, -3e-16)])
        z = z[(z > 0.0) & (z <= 0.5)]
        assert np.array_equal(chord_arc._bin_index(z, edges), self.expect(z, edges))


class TestMinZ:
    def test_parallel_positive_for_positive_a(self):
        c = generators.parallel_curve(np.pi / 4, 256)
        for a in (0.5, 2.0, 10.0):
            assert chord_arc.min_Z(c, BarrierParams(a)) > 0.0

    def test_equator_limit_barrier_grazes(self):
        c = generators.great_circle_curve((0, 0, 1), 512)
        assert 0.0 <= chord_arc.min_Z(c, BarrierParams(0.0)) <= 1e-3 * c.length

    def test_monotone_in_a(self, perturbed):
        vals = [chord_arc.min_Z(perturbed, BarrierParams(a))
                for a in (0.0, 0.5, 1.0, 2.0, 4.0, 16.0)]
        assert np.all(np.diff(vals) >= 0.0)

    def test_near_diagonal_positivity(self):
        # pairs at cyclic distance 2..8 stay strictly above the profile
        from sphereflow import barrier as bar
        for curve in (generators.parallel_curve(np.pi / 3, 256),
                      generators.fourier_perturbed_curve((0, 0, 1), [2, 3],
                                                         [0.15, 0.08], 256, seed=6)):
            a = chord_arc.admissible_a(curve)
            s, L = curve.cum_lengths, curve.length
            for k in range(2, 9):
                d = np.linalg.norm(curve.points - np.roll(curve.points, -k, axis=0), axis=1)
                arc = (np.roll(s[:-1], -k) - s[:-1]) % L
                ell = np.minimum(arc, L - arc)
                prof_vals = np.asarray(bar.phi(ell / L, a))
                assert np.all(d - L * prof_vals > 0.0)

    def test_grazing_tangent_alignment(self):
        # at the grazing family (parallels, a -> 0): <T_x, T_y> = 2 phi'(z)^2 - 1
        n = 512
        c = generators.parallel_curve(np.pi / 4, n)
        f = sg.frame_field(c)
        from sphereflow import barrier as bar
        for k in (3, 17, 100, 255):
            dot = float(np.dot(f.tangent[0], f.tangent[k]))
            zp = float(np.asarray(bar.phi_derivatives(k / n, 0.0).phi_prime))
            assert abs(dot - (2 * zp ** 2 - 1.0)) <= 10.0 / n ** 2


class TestAdmissibleA:
    def test_parallel_needs_no_barrier_slack(self):
        assert chord_arc.admissible_a(generators.parallel_curve(np.pi / 3, 256)) == 0.0

    def test_threshold_and_log_grid_oracle(self, perturbed):
        a_star = chord_arc.admissible_a(perturbed, tol=1e-4)
        # brute-force oracle: coarse log sweep brackets the bisection answer
        grid = np.logspace(-2, 2, 200)
        ok = np.array([chord_arc.min_Z(perturbed, BarrierParams(float(a))) >= 0
                       for a in grid])
        first = grid[int(np.argmax(ok))]
        assert ok[-1]
        below = grid[~ok]
        assert below.size and below[-1] <= a_star <= first * 1.01
        # certification and minimality
        assert chord_arc.min_Z(perturbed, BarrierParams(a_star)) >= 0.0
        assert chord_arc.min_Z(perturbed, BarrierParams(a_star * 0.999)) < 0.0

    def test_reproducible_across_resolution(self):
        vals = [chord_arc.admissible_a(
            generators.fourier_perturbed_curve((0, 0, 1), [2], [0.2], n), tol=1e-4)
            for n in (256, 512)]
        assert abs(vals[0] - vals[1]) / vals[1] < 0.05

    def test_near_touching_needs_huge_a(self):
        # dumbbell-like: deep mode-2 pinch drives the minimum chord toward zero
        c = generators.fourier_perturbed_curve((0, 0, 1), [2], [1.35], 512)
        assert sg.validate_simple(c)
        try:
            a = chord_arc.admissible_a(c)
        except NotAdmissible:
            return
        assert a > 100.0

    def test_cap_raises_not_admissible(self, monkeypatch):
        # the dumbbell above needs a of about 269, past a cap of 64
        c = generators.fourier_perturbed_curve((0, 0, 1), [2], [1.35], 512)
        monkeypatch.setattr(chord_arc, "ADMISSIBLE_A_CAP", 64)
        with pytest.raises(NotAdmissible, match="up to 64$"):
            chord_arc.admissible_a(c)

    @staticmethod
    def count_min_Z(monkeypatch):
        calls = []
        min_Z = chord_arc.min_Z

        def counting_min_Z(curve, params):
            calls.append(params.a)
            return min_Z(curve, params)

        monkeypatch.setattr(chord_arc, "min_Z", counting_min_Z)
        return calls

    def test_parallel_takes_one_min_Z(self, monkeypatch):
        calls = self.count_min_Z(monkeypatch)
        assert chord_arc.admissible_a(generators.parallel_curve(np.pi / 3, 256)) == 0.0
        assert calls == [0.0]

    def test_pipeline_start_curve(self, monkeypatch):
        # a = 0 fails, the bracket grows 1 -> 2 -> 4, then ten bisection steps
        curve = generators.fourier_perturbed_curve((0, 0, 1), [1, 3], [0.2, 0.1], 512,
                                                   antipodal_symmetric=True, seed=7)
        calls = self.count_min_Z(monkeypatch)
        assert chord_arc.admissible_a(curve) == 2.013671875
        assert calls[:4] == [0.0, 1.0, 2.0, 4.0] and len(calls) == 14


def pipeline_curve(n, seed):
    return generators.fourier_perturbed_curve((0, 0, 1), [1, 3], [0.2, 0.1], n,
                                              antipodal_symmetric=True, seed=seed)


def step0_margin(curve, a):
    kmax = float(np.max(np.abs(sg.frame_field(curve).kappa)))
    return barrier.curvature_margin(kmax, curve.length, a, 0.0)


class TestResolveA:
    @pytest.mark.parametrize("n, seeds", [(512, range(12)), (2048, (0, 1, 7, 9))])
    def test_step0_curvature_margin(self, n, seeds):
        # the pairs' part alone leaves the curvature bound short at t = 0
        for seed in seeds:
            curve = pipeline_curve(n, seed)
            a_pairs, a_curv = chord_arc.resolve_a(curve)
            assert a_curv > a_pairs
            assert step0_margin(curve, a_pairs) < -1e-3
            assert step0_margin(curve, max(a_pairs, a_curv)) >= -1e-14

    def test_pairs_part_is_admissible_a(self, monkeypatch):
        # through the module global, so a wrapper set there sees the call
        curve = pipeline_curve(512, 7)
        calls = []
        admissible_a = chord_arc.admissible_a
        monkeypatch.setattr(chord_arc, "admissible_a",
                            lambda c, tol: calls.append(tol) or admissible_a(c, tol))
        a_pairs, a_curv = chord_arc.resolve_a(curve, 1e-3)
        assert calls == [1e-3]
        assert a_pairs == admissible_a(curve) == 2.013671875
        assert round(a_curv, 4) == 2.0428

    def test_parallel_needs_neither_part(self):
        assert chord_arc.resolve_a(generators.parallel_curve(np.pi / 3, 512)) == (0.0, 0.0)


class TestCubicFit:
    @pytest.mark.parametrize("theta,target", [
        (np.pi / 6, 1.0 / 6.0),
        (np.pi / 4, 1.0 / 12.0),
        (np.pi / 2, 1.0 / 24.0),
    ])
    def test_parallel_coefficients(self, theta, target):
        # oracle: kappa = cot(theta), c = (1 + kappa^2)/24 = 1/(24 sin^2 theta)
        prof = chord_arc.profile(generators.parallel_curve(theta, 2048), 512)
        c = chord_arc.cubic_fit(prof)
        assert abs(c - target) / target < 0.05

    def test_matches_measured_curvature(self):
        curve = generators.parallel_curve(np.pi / 6, 2048)
        prof = chord_arc.profile(curve, 512)
        kmax = float(np.max(np.abs(sg.frame_field(curve).kappa)))
        c = chord_arc.cubic_fit(prof)
        assert abs(c - (1 + kmax ** 2) / 24.0) / c < 0.05

    def test_insufficient_data(self):
        prof = chord_arc.profile(generators.great_circle_curve((0, 0, 1), 64), 16)
        with pytest.raises(InsufficientData):
            chord_arc.cubic_fit(prof)


# entries per block of the cyclic-gap kernel: one gap per block at n = 96,
# five gaps, and one block for all gaps
BLOCK_ENTRIES = (1, 3, 64, 500, 1 << 30)


@pytest.fixture(scope="module")
def generic():
    # no symmetry, so minima are not tied to round-off
    return generators.fourier_perturbed_curve((0, 0, 1), [0, 2, 3], [0.45, 0.08, 0.05],
                                              96, seed=5)


@pytest.fixture(scope="module", params=["generic", "parallel"])
def any_curve(request, generic):
    # a parallel ties every pair at one index gap to round-off, so which
    # tied pair gets reported depends on the tie rule alone
    if request.param == "parallel":
        return generators.parallel_curve(np.pi / 3, 96)
    return generic


def kernel_outputs(curve):
    prof = chord_arc.profile(curve, 64)
    return {"psi": prof.psi, "pair_i": prof.pair_i, "pair_j": prof.pair_j,
            "pair_z": prof.pair_z,
            "min_Z": np.array([chord_arc.min_Z(curve, BarrierParams(a)) for a in (0.0, 1.0, 20.0)]),
            "admissible_a": np.array([chord_arc.admissible_a(curve, tol=1e-6)]),
            "simple_candidates": np.stack(sg._simple_candidates(curve))}


class TestPairwiseKernel:
    @pytest.mark.parametrize("entries", BLOCK_ENTRIES)
    def test_bitwise_independent_of_block_size(self, any_curve, monkeypatch, entries):
        ref = kernel_outputs(any_curve)
        monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", entries)
        out = kernel_outputs(any_curve)
        for key, val in ref.items():
            assert out[key].tobytes() == val.tobytes(), key

    @pytest.mark.parametrize("entries", BLOCK_ENTRIES)
    def test_profile_brute_force(self, generic, monkeypatch, entries):
        monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", entries)
        # 64 bins over n = 96 vertices leave some bins empty
        prof = chord_arc.profile(generic, 64)
        p, s, L, n = generic.points, generic.cum_lengths, generic.length, generic.n
        edges = np.linspace(0.0, 0.5, 65)
        oracle = np.full(64, np.nan)
        for i in range(n):
            for j in range(i + 1, n):
                arc = s[j] - s[i]
                k = int(np.searchsorted(edges, min(arc, L - arc) / L, side="left")) - 1
                d = float(np.linalg.norm(p[i] - p[j]))
                if 0 <= k < 64 and (np.isnan(oracle[k]) or d < oracle[k]):
                    oracle[k] = d
        assert np.any(prof.empty_bins)
        assert np.array_equal(prof.empty_bins, np.isnan(oracle))
        full = ~prof.empty_bins
        assert np.max(np.abs(prof.psi[full] - oracle[full])) <= 1e-12
        # every recorded pair sits in its bin and attains the bin minimum
        for k in np.nonzero(full)[0]:
            i, j = int(prof.pair_i[k]), int(prof.pair_j[k])
            assert 0 <= i < j < n
            assert edges[k] < prof.pair_z[k] <= edges[k + 1]
            assert abs(float(np.linalg.norm(p[i] - p[j])) - prof.psi[k]) <= 1e-12

    @pytest.mark.parametrize("entries", BLOCK_ENTRIES)
    def test_min_Z_brute_force(self, generic, monkeypatch, entries):
        monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", entries)
        p, s, L, n = generic.points, generic.cum_lengths, generic.length, generic.n
        for a in (0.0, 1.0, 20.0):
            best = np.inf
            for i in range(n):
                for j in range(i + 2, n):
                    if j - i > n - 2:
                        continue
                    arc = s[j] - s[i]
                    z = min(arc, L - arc) / L
                    gap = float(np.linalg.norm(p[i] - p[j])) - L * float(barrier.phi(z, a))
                    best = min(best, gap)
            assert abs(chord_arc.min_Z(generic, BarrierParams(a)) - best) <= 1e-13

    def test_admissible_a_matches_unfiltered_bisection(self, perturbed):
        # the bisection of the definition, with min_Z over all pairs each time
        def admits(a):
            return chord_arc.min_Z(perturbed, BarrierParams(a)) >= 0.0

        assert not admits(0.0)
        hi = 1.0
        while not admits(hi):
            hi *= 2.0
        lo = hi / 2.0 if hi > 1.0 else 0.0
        while hi - lo > 1e-4 * hi:
            mid = 0.5 * (lo + hi)
            hi, lo = (mid, lo) if admits(mid) else (hi, mid)
        assert chord_arc.admissible_a(perturbed, tol=1e-4) == hi

    @pytest.mark.parametrize("fn", ["profile", "min_Z", "validate_simple"])
    def test_memory_is_per_block(self, fn):
        # an n x n float64 array alone is 33.5 MB at n = 2048; on the clustered
        # curve the per-gap bound of min_Z is loose and keeps more pairs
        for curve in (generators.fourier_perturbed_curve((0, 0, 1), [0, 2, 3],
                                                         [0.45, 0.08, 0.05], 2048, seed=3),
                      clustered(2048)):
            call = {"profile": lambda: chord_arc.profile(curve, 256),
                    "min_Z": lambda: chord_arc.min_Z(curve, BarrierParams(1.0)),
                    "validate_simple": lambda: sg.validate_simple(curve)}[fn]
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6

    def test_min_Z_evaluates_about_n_gaps_on_a_flow_checkpoint(self, monkeypatch):
        # the great_circle_pipeline start curve after 25 flow steps: uniform
        # spacing, n = 512, antipodal symmetry (pairs tie in twos)
        curve = generators.fourier_perturbed_curve((0, 0, 1), [1, 3], [0.2, 0.1], 512,
                                                   antipodal_symmetric=True, seed=7)
        state = flow_engine.FlowState(curve=curve, t=0.0, tau=0.0, step_index=0)
        for _ in range(25):
            state = flow_engine.step(state, flow_engine.dt_max(state))
        params = BarrierParams(2.0, state.tau)
        expect = row_blocks.min_Z(state.curve, params)
        evaluated = []
        phi = barrier.phi

        def counting_phi(z, a):
            evaluated.append(np.size(z))
            return phi(z, a)

        monkeypatch.setattr(barrier, "phi", counting_phi)
        assert chord_arc.min_Z(state.curve, params) == expect
        assert sum(evaluated) < 4 * state.curve.n


def clustered(n, amp=0.4):
    """A parallel-like curve sampled at u = t + amp sin t: ds varies by about 2 amp."""
    t = 2 * np.pi * np.arange(n) / n
    u = t + amp * np.sin(t)
    theta = np.pi / 3 + 0.2 * np.sin(2 * u)
    return sg.make_curve(np.column_stack([np.sin(theta) * np.cos(u),
                                          np.sin(theta) * np.sin(u), np.cos(theta)]))


def jittered(n, seed):
    """A parallel with every vertex moved by up to 1% of the spacing, not resampled."""
    rng = np.random.default_rng(seed)
    pts = generators.parallel_curve(np.pi / 3, n).points
    return sg.make_curve(pts + rng.uniform(-1.0, 1.0, size=pts.shape) * (0.01 * 2 * np.pi / n))


def perturbed_curve(n):
    """Perturbed great circle, resampled as in a flow run for n >= 16, else as
    sampled at uniform parameter steps (uneven spacing at the smallest n)."""
    if n >= 16:
        return generators.fourier_perturbed_curve((0, 0, 1), [0, 2, 3], [0.45, 0.08, 0.05],
                                                  n, seed=5)
    u = 2 * np.pi * np.arange(n) / n
    lat = 0.45 + 0.08 * np.cos(2 * u + 1.0) + 0.05 * np.cos(3 * u + 2.0)
    return sg.make_curve(np.column_stack([np.cos(lat) * np.cos(u),
                                          np.cos(lat) * np.sin(u), np.sin(lat)]))


ORACLE_CURVES = {
    "parallel": lambda n: generators.parallel_curve(np.pi / 3, n),
    "great_circle": lambda n: generators.great_circle_curve((0.2, -0.3, 1.0), n),
    "jittered": lambda n: jittered(n, seed=n),
    "clustered": clustered,
    "perturbed": perturbed_curve,
}


@pytest.fixture(scope="module", params=[8, 9, 16, 17, 255, 256, 1024])
def oracle_n(request):
    return request.param


class TestMatchesRowBlocks:
    """Bitwise agreement with the row-block walk over all pairs i < j."""

    @pytest.fixture(params=sorted(ORACLE_CURVES))
    def curve(self, request, oracle_n):
        return ORACLE_CURVES[request.param](oracle_n)

    def test_clustered_spacing_spread(self, oracle_n):
        ds = clustered(oracle_n).seg_lengths
        assert ds.max() - ds.min() >= 0.5 * ds.mean()

    def test_min_Z(self, curve):
        for a in (0.0, 0.3, 1.0, 2.013671875, 20.0):
            got = chord_arc.min_Z(curve, BarrierParams(a))
            want = row_blocks.min_Z(curve, BarrierParams(a))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_validate_simple_candidates(self, curve):
        got, want = sg._simple_candidates(curve), row_blocks.simple_candidates(curve)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert sg.validate_simple(curve) == row_blocks.validate_simple(curve)

    def test_profile(self, curve):
        bins = 16 if curve.n < 64 else 256
        got, want = chord_arc.profile(curve, bins), row_blocks.profile(curve, bins)
        for name in ("psi", "pair_i", "pair_j", "pair_z", "z_centers"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("bins", [17, 100, 1000])
    def test_profile_bin_counts_off_powers_of_two(self, curve, bins):
        # edges that are not exact multiples of a power of two
        got, want = chord_arc.profile(curve, bins), row_blocks.profile(curve, bins)
        for name in ("psi", "pair_i", "pair_j", "pair_z", "z_centers"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_admissible_a(self, curve):
        assert chord_arc.admissible_a(curve, tol=1e-6) == row_blocks.admissible_a(curve, tol=1e-6)


def latitude_curve(n, seed):
    """A profile_large curve: the equator moved in latitude by modes 0, 2, 3
    with random phases, sampled at uniform longitude and not resampled."""
    phases = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=3)
    u = 2 * np.pi * np.arange(n) / n
    lat = sum(a * np.cos(m * u + ph) for m, a, ph in zip((0, 2, 3), (0.45, 0.08, 0.05), phases))
    return sg.make_curve(np.column_stack([np.cos(lat) * np.cos(u), np.cos(lat) * np.sin(u),
                                          np.sin(lat)]))


RUN_CURVES = {
    # drift of about 4 bins, most runs single-bin
    "profile_large": lambda: latitude_curve(2048, 4001),
    # resampled: the gaps sit on bin edges at n = 512, every second gap at
    # 1024 and every fourth at 2048
    "resampled_512": lambda: perturbed_curve(512),
    "resampled_1024": lambda: perturbed_curve(1024),
    "resampled_2048": lambda: perturbed_curve(2048),
    # odd n, and n = 2 mod 8, where gap n/2 has a run across its repeated half
    "odd_1023": lambda: latitude_curve(1023, 11),
    "even_1030": lambda: latitude_curve(1030, 12),
    "stalled": stalled_curve,
}


@pytest.fixture(scope="module", params=sorted(RUN_CURVES))
def run_case(request):
    curve = RUN_CURVES[request.param]()
    bins = 100 if request.param == "stalled" else 256
    return curve, bins, row_blocks.profile(curve, bins)


class TestRunPath:
    """profile's runs of _RUN vertices against the row-block walk, bit for bit."""

    @pytest.mark.parametrize("w", [2, 8, 64])
    @pytest.mark.parametrize("entries", BLOCK_ENTRIES)
    def test_matches_row_blocks(self, run_case, monkeypatch, w, entries):
        curve, bins, want = run_case
        monkeypatch.setattr(chord_arc, "_RUN", w)
        monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", entries)
        got = chord_arc.profile(curve, bins)
        for name in ("psi", "pair_i", "pair_j", "pair_z", "z_centers"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_runs_cover_most_pairs(self, monkeypatch):
        # a silent fall-back to pair-by-pair binning would still match the
        # oracle; count the pairs that only a single-bin run's minimum saw
        curve = latitude_curve(2048, 4001)
        covered = []
        fold = chord_arc._fold_run_rows
        # all in this process: a forked worker's folds would not be counted
        monkeypatch.setattr(chord_arc, "_SPLIT_PAIRS", math.inf)

        def spy(psi, key, k, d2, bins, single, *args):
            covered.append(np.count_nonzero(single) * chord_arc._RUN)
            return fold(psi, key, k, d2, bins, single, *args)

        monkeypatch.setattr(chord_arc, "_fold_run_rows", spy)
        chord_arc.profile(curve, 256)
        assert sum(covered) >= 0.8 * curve.n * (curve.n - 1) / 2

    def test_edge_aligned_gaps_bin_without_search(self, monkeypatch):
        # at n = 512 every gap sits on a bin edge: no run is single-bin, and
        # each pair's bin comes from one comparison with its nearest edge
        curve = perturbed_curve(512)
        want = row_blocks.profile(curve, 256)
        searched, folded = [], []
        search, fold = np.searchsorted, chord_arc._fold_run_rows
        monkeypatch.setattr(chord_arc.np, "searchsorted",
                            lambda *args, **kw: searched.append(1) or search(*args, **kw))
        monkeypatch.setattr(chord_arc, "_fold_run_rows",
                            lambda *args: folded.append(1) or fold(*args))
        got = chord_arc.profile(curve, 256)
        assert not searched and not folded
        for name in ("psi", "pair_i", "pair_j", "pair_z", "z_centers"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_fold_in_takes_no_infinite_chord():
    # the repeated half of gap n/2 comes in as +inf; it must not claim a bin
    psi = np.full(4, np.inf)
    key = np.full(4, chord_arc._NO_PAIR)
    idx = np.array([0, 2, 2, -1])
    chord_arc._fold_in(psi, key, np.full(4, np.inf), idx,
                       lambda hit, best: (idx[hit], hit))
    assert np.all(psi == np.inf)
    assert np.all(key == chord_arc._NO_PAIR)


PROFILE_FIELDS = ("psi", "pair_i", "pair_j", "pair_z")


def in_place(curve, bins, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(chord_arc, "_SPLIT_PAIRS", math.inf)
        return chord_arc.profile(curve, bins)


def assert_same(got, want):
    for name in PROFILE_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


SPLIT_CURVES = {
    # every pair at one gap ties
    "parallel": lambda: generators.parallel_curve(np.pi / 3, 96),
    # antipodal ties at gap n/2
    "pipeline_1024": lambda: pipeline_curve(1024, 7),
    "odd_97": lambda: generators.fourier_perturbed_curve(
        (0, 0, 1), [0, 2, 3], [0.45, 0.08, 0.05], 97, seed=5),
}


class TestSplitPass:
    """profile's pass split with a forked worker: the bytes of the pass in
    place, and no worker left behind."""

    @pytest.fixture
    def split(self, monkeypatch, helpers):
        """Every profile splits, its worker on the allowed CPUs."""
        monkeypatch.setattr(chord_arc, "_SPLIT_PAIRS", 0)
        monkeypatch.setattr(worker, "spare_cpus", lambda: set(os.sched_getaffinity(0)))
        return helpers

    def assert_one_worker(self, helpers, code=0):
        forked, reaped = helpers
        assert len(forked) == 1
        if code is not None:
            assert os.waitstatus_to_exitcode(reaped[forked[0]]) == code
        assert_reaped(forked)

    @pytest.mark.parametrize("bins", [16, 64, 256, 1000])
    @pytest.mark.parametrize("entries", BLOCK_ENTRIES)
    def test_generic_every_block_size(self, generic, monkeypatch, split, entries, bins):
        monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", entries)
        want = in_place(generic, bins, monkeypatch)
        assert_same(chord_arc.profile(generic, bins), want)
        self.assert_one_worker(split)

    @pytest.mark.parametrize("bins", [16, 64, 256, 1000])
    @pytest.mark.parametrize("name", sorted(SPLIT_CURVES))
    def test_tied_and_odd_curves(self, monkeypatch, split, name, bins):
        curve = SPLIT_CURVES[name]()
        want = in_place(curve, bins, monkeypatch)
        assert_same(chord_arc.profile(curve, bins), want)
        self.assert_one_worker(split)

    def test_equal_chords_across_the_split(self, monkeypatch, split):
        # vertices 22.5 degrees apart on the equator, quadrants by exact
        # rotation: pairs (0, 4) at gap 4 (the worker's block) and (5, 8) at
        # gap 3 (this process's) tie in bin 13, and the first is (0, 4)
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        quadrant = [(1.0, 0.0), (c, s), (math.sqrt(0.5), math.sqrt(0.5)), (s, c)]
        points = []
        for q in (12, 13, 1, 2, 3, 4, 6, 7, 11):
            x, y = quadrant[q % 4]
            for _ in range(q // 4):
                x, y = -y, x
            points.append((x, y, 0.0))
        curve = sg.make_curve(np.array(points))
        monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", curve.n)   # one gap a block
        d2 = [np.sum(np.square(curve.points[i] - curve.points[j])) for i, j in ((0, 4), (5, 8))]
        assert d2[0] == d2[1]
        want = in_place(curve, 16, monkeypatch)
        got = chord_arc.profile(curve, 16)
        assert (got.pair_i[13], got.pair_j[13]) == (want.pair_i[13], want.pair_j[13]) == (0, 4)
        assert_same(got, want)
        self.assert_one_worker(split)

    def test_threshold(self, generic, monkeypatch, helpers):
        monkeypatch.setattr(worker, "spare_cpus", lambda: set(os.sched_getaffinity(0)))
        pairs = generic.n * (generic.n - 1) // 2
        monkeypatch.setattr(chord_arc, "_SPLIT_PAIRS", pairs + 1)
        chord_arc.profile(generic, 64)
        assert helpers[0] == []
        monkeypatch.setattr(chord_arc, "_SPLIT_PAIRS", pairs)
        chord_arc.profile(generic, 64)
        self.assert_one_worker(helpers)

    @pytest.mark.parametrize("where", ["one_cpu", "quota_1.5", "cpu_unread"])
    def test_in_place_without_a_spare_cpu(self, generic, monkeypatch, helpers, where):
        monkeypatch.setattr(chord_arc, "_SPLIT_PAIRS", 0)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if where == "one_cpu" else {0, 1})
        monkeypatch.setattr(worker, "_cpu_quota", lambda: 1.5 if where == "quota_1.5" else math.inf)
        if where == "cpu_unread":
            monkeypatch.setattr(worker, "_current_cpu", lambda: None)
        want = in_place(generic, 64, monkeypatch)
        assert_same(chord_arc.profile(generic, 64), want)
        assert helpers[0] == []

    @pytest.mark.parametrize("sent", [0, 1, 8 * 64 + 8], ids=["nothing", "a byte", "half"])
    def test_worker_that_sends_less_is_done_in_place(self, generic, monkeypatch, split, sent):
        want = in_place(generic, 64, monkeypatch)
        monkeypatch.setattr(chord_arc, "_send", lambda fd, curve, edges: os.write(fd, bytes(sent)))
        assert_same(chord_arc.profile(generic, 64), want)
        self.assert_one_worker(split)

    def test_no_process_to_be_had(self, generic, monkeypatch, split):
        want = in_place(generic, 64, monkeypatch)

        def no_fork():
            raise BlockingIOError("fork: no process to be had")

        monkeypatch.setattr(os, "fork", no_fork)
        held = len(os.listdir("/proc/self/fd"))
        assert_same(chord_arc.profile(generic, 64), want)
        assert len(os.listdir("/proc/self/fd")) == held   # the pipe is closed

    def test_worker_that_dies_is_done_in_place(self, generic, monkeypatch, split):
        want = in_place(generic, 64, monkeypatch)
        monkeypatch.setattr(chord_arc, "_send", lambda fd, curve, edges: os._exit(3))
        assert_same(chord_arc.profile(generic, 64), want)
        self.assert_one_worker(split, code=3)

    @pytest.mark.parametrize("exc", [PreconditionViolation("injected"), KeyboardInterrupt()],
                             ids=["error", "KeyboardInterrupt"])
    def test_raise_in_the_callers_fold_reaps_the_worker(self, generic, monkeypatch, split, exc):
        # the worker, still folding, is killed, not waited for
        fold, caller = chord_arc._fold_blocks, os.getpid()

        def failing(curve, edges, part, parts):
            if os.getpid() != caller:
                time.sleep(60.0)
            elif parts == 2:
                raise exc
            return fold(curve, edges, part, parts)

        monkeypatch.setattr(chord_arc, "_fold_blocks", failing)
        start = time.monotonic()
        with pytest.raises(type(exc)):
            chord_arc.profile(generic, 64)
        assert time.monotonic() - start < 30.0
        self.assert_one_worker(split, code=-signal.SIGKILL)

    @needs_two_cpus
    def test_worker_is_pinned_and_holds_only_its_pipe(self, generic, monkeypatch, helpers,
                                                      tmp_path):
        monkeypatch.setattr(chord_arc, "_SPLIT_PAIRS", 0)
        ready, go = tmp_path / "ready", tmp_path / "go"
        fold, caller, seen = chord_arc._fold_blocks, os.getpid(), {}

        def watched(curve, edges, part, parts):
            if os.getpid() != caller:          # the worker, set up: wait to be seen
                ready.touch()
                deadline = time.monotonic() + 30.0
                while not go.exists() and time.monotonic() < deadline:
                    time.sleep(0.001)
            elif parts == 2:
                try:
                    deadline = time.monotonic() + 30.0
                    while not ready.exists() and time.monotonic() < deadline:
                        time.sleep(0.001)
                    pid = helpers[0][0]
                    seen["cpus"] = os.sched_getaffinity(pid)
                    seen["fds"] = {int(fd): os.readlink(f"/proc/{pid}/fd/{fd}")
                                   for fd in os.listdir(f"/proc/{pid}/fd")}
                    seen["ignores_sigint"] = ignores_sigint(pid)
                finally:
                    go.touch()
            return fold(curve, edges, part, parts)

        monkeypatch.setattr(chord_arc, "_fold_blocks", watched)
        want = in_place(generic, 64, monkeypatch)
        assert_same(chord_arc.profile(generic, 64), want)
        self.assert_one_worker(helpers)
        allowed = os.sched_getaffinity(0)
        assert seen["cpus"] < allowed and len(seen["cpus"]) == len(allowed) - 1
        extra = {fd: target for fd, target in seen["fds"].items() if fd > 2}
        assert len(extra) == 1 and next(iter(extra.values())).startswith("pipe:")
        assert seen["ignores_sigint"]
