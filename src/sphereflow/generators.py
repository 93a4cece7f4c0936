"""Initial-curve generators and the portable PRNG behind random phases.

Random phases come from splitmix64, a 64-bit mixing generator simple enough
to restate in any language: state advances by the golden-gamma constant
0x9E3779B97F4A7C15 and each output is the state scrambled by two
xor-shift-multiply rounds. Identical seeds reproduce identical curves.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import ConfigParseError
from .sphere_geometry import DiscreteCurve, make_curve, orthonormal_basis, reparametrize_uniform

_MASK = (1 << 64) - 1


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of splitmix64 as uint64."""
    out = np.empty(count, dtype=np.uint64)
    state = seed & _MASK
    for k in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out[k] = (z ^ (z >> 31)) & _MASK
    return out


def uniform01(seed: int, count: int) -> np.ndarray:
    """count uniforms in [0, 1) derived from splitmix64(seed)."""
    return splitmix64(seed, count).astype(np.float64) / float(1 << 64)


def parallel_curve(theta0: float, n: int) -> DiscreteCurve:
    """Circle of constant polar angle theta0 about the z-axis."""
    u = 2.0 * np.pi * np.arange(n) / n
    r = np.sin(theta0)
    pts = np.column_stack([r * np.cos(u), r * np.sin(u), np.full(n, np.cos(theta0))])
    return make_curve(pts)


def great_circle_curve(axis, n: int) -> DiscreteCurve:
    e1, e2, _ = orthonormal_basis(axis)
    u = 2.0 * np.pi * np.arange(n) / n
    pts = np.outer(np.cos(u), e1) + np.outer(np.sin(u), e2)
    return make_curve(pts)


def fourier_perturbed_curve(axis, modes, amplitudes, n: int,
                            antipodal_symmetric: bool = False,
                            seed: int | None = None) -> DiscreteCurve:
    """Great circle about `axis` displaced in latitude by a Fourier sum.

    The latitude offset is f(u) = sum_k A_k cos(k u + ph_k); phases ph_k are
    zero unless a seed is given, in which case they are uniform from
    splitmix64(seed). With antipodal_symmetric only odd modes are kept,
    which enforces gamma(u + pi) = -gamma(u). The result is resampled to
    uniform spacing.
    """
    modes = [int(m) for m in modes]
    amps = [float(x) for x in amplitudes]
    if len(modes) != len(amps):
        raise ConfigParseError("modes and amplitudes must have equal length")
    phases = np.zeros(len(modes)) if seed is None else 2.0 * np.pi * uniform01(seed, len(modes))
    if antipodal_symmetric:
        keep = [k for k, m in enumerate(modes) if m % 2 == 1]
        modes = [modes[k] for k in keep]
        amps = [amps[k] for k in keep]
        phases = phases[keep]
    e1, e2, e3 = orthonormal_basis(axis)
    u = 2.0 * np.pi * np.arange(n) / n
    f = np.zeros(n)
    for m, amp, ph in zip(modes, amps, phases):
        f += amp * np.cos(m * u + ph)
    ring = np.outer(np.cos(u), e1) + np.outer(np.sin(u), e2)
    pts = np.cos(f)[:, None] * ring + np.outer(np.sin(f), e3)
    return reparametrize_uniform(make_curve(pts), n)


def initial_curve(cfg: RunConfig) -> DiscreteCurve:
    """Build the starting curve described by cfg.generator, n vertices."""
    spec, n = cfg.generator, cfg.n
    if spec.kind == "parallel":
        return parallel_curve(spec.theta0, n)
    if spec.kind == "great_circle":
        return great_circle_curve(spec.axis, n)
    if spec.kind == "fourier_perturbed":
        return fourier_perturbed_curve(spec.axis, spec.modes, spec.amplitudes, n,
                                       antipodal_symmetric=spec.antipodal_symmetric,
                                       seed=cfg.seed)
    if spec.kind == "from_file":
        from .run_io import read_curve_csv
        return reparametrize_uniform(read_curve_csv(spec.path), n)
    raise ConfigParseError(f"unknown generator kind {spec.kind!r}")
