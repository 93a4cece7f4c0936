"""Run configuration: JSON schema, validation, canonical hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

from .errors import ConfigParseError

GENERATOR_KINDS = ("parallel", "great_circle", "fourier_perturbed", "from_file")

# The largest n and n_floor; README.md ("Command line") gives the reason.
MAX_VERTICES = 2 ** 20

ALL_CHECKS = (
    "chord_arc", "curvature_bound", "length_sandwich", "improved_length",
    "tau_bracket", "roundness", "great_circle", "fenchel", "length_decay",
)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    theta0: float | None = None
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    modes: tuple[int, ...] = ()
    amplitudes: tuple[float, ...] = ()
    antipodal_symmetric: bool = False
    path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    generator: GeneratorSpec
    n: int = 512
    dt: float = 1e-4
    t_max: float = 5.0
    l_floor: float = 0.05
    a: float | None = None
    checks: tuple[str, ...] = ALL_CHECKS
    seed: int = 0
    output_dir: str | None = None
    # engine knobs
    c_cfl: float = 5.0
    dt_curvature_frac: float = 0.004
    n_floor: int = 64
    checkpoint_every: int = 500
    z_every: int = 25
    simple_every: int = 25
    symmetrize: bool = False
    gc_kappa_tol: float = 1e-6
    admissible_tol: float = 1e-3


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigParseError(msg)


# Checks of JSON value types. JSON true and false load as Python bools,
# which are also ints, so the number checks leave them out.
def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v) -> bool:
    """A number that is a finite float: json reads NaN, Infinity and -Infinity
    as floats, and an integer too large for a float is not one either."""
    try:
        return _number(v) and math.isfinite(v)
    except OverflowError:
        return False


def _boolean(v) -> bool:
    return isinstance(v, bool)


def _string(v) -> bool:
    return isinstance(v, str)


def _optional(is_value):
    return lambda v: v is None or is_value(v)


def _list_of(is_item, size: int | None = None):
    return lambda v: (isinstance(v, (list, tuple)) and all(is_item(x) for x in v)
                      and (size is None or len(v) == size))


def _field(raw: dict, name: str, default, is_value, what: str, prefix: str = ""):
    """raw[name], or default when absent; a value of the wrong JSON type is a
    ConfigParseError that names the field."""
    val = raw.get(name, default)
    _require(is_value(val), f"{prefix}{name} must be {what}")
    return val


def generator_from_dict(raw: dict) -> GeneratorSpec:
    _require(isinstance(raw, dict), "generator must be an object")
    unknown = set(raw) - set(GeneratorSpec.__dataclass_fields__)
    _require(not unknown, f"unknown generator fields: {sorted(unknown)}")
    kind = raw.get("kind")
    _require(kind in GENERATOR_KINDS, f"generator.kind must be one of {GENERATOR_KINDS}")

    def get(name, default, is_value, what):
        return _field(raw, name, default, is_value, what, "generator.")

    spec = GeneratorSpec(
        kind=kind,
        theta0=get("theta0", None, _optional(_finite), "a finite number"),
        axis=tuple(float(v) for v in get("axis", (0.0, 0.0, 1.0), _list_of(_finite, 3),
                                         "a list of 3 finite numbers")),
        modes=tuple(get("modes", (), _list_of(lambda v: _integer(v) and _finite(v)),
                        "a list of integers that a float can hold")),
        amplitudes=tuple(float(x) for x in get("amplitudes", (), _list_of(_finite),
                                               "a list of finite numbers")),
        antipodal_symmetric=get("antipodal_symmetric", False, _boolean, "true or false"),
        path=get("path", None, _optional(_string), "a string"),
    )
    if kind == "parallel":
        _require(spec.theta0 is not None and 0.0 < spec.theta0 < 3.141592653589793,
                 "parallel generator needs polar angle theta0 in (0, pi)")
    if kind == "fourier_perturbed":
        _require(len(spec.modes) == len(spec.amplitudes) > 0,
                 "fourier_perturbed needs matching nonempty modes/amplitudes")
        _require(all(m >= 0 for m in spec.modes), "modes must be nonnegative integers")
    if kind == "from_file":
        _require(bool(spec.path), "from_file generator needs a path")
    return spec


def config_from_dict(raw: dict) -> RunConfig:
    _require(isinstance(raw, dict), "config must be a JSON object")
    _require("generator" in raw, "config needs a generator")
    unknown = set(raw) - set(RunConfig.__dataclass_fields__)
    _require(not unknown, f"unknown config fields: {sorted(unknown)}")

    defaults = RunConfig(generator=GeneratorSpec(kind="great_circle"))
    kwargs = {}
    for name in ("n", "n_floor", "checkpoint_every", "z_every", "simple_every", "seed"):
        kwargs[name] = _field(raw, name, getattr(defaults, name), _integer, "an integer")
    for name in ("dt", "t_max", "l_floor", "c_cfl", "dt_curvature_frac",
                 "gc_kappa_tol", "admissible_tol"):
        kwargs[name] = float(_field(raw, name, getattr(defaults, name), _finite,
                                    "a finite number"))
    a = _field(raw, "a", None, _optional(_finite), "a finite number")

    cfg = RunConfig(
        generator=generator_from_dict(raw["generator"]),
        a=None if a is None else float(a),
        checks=tuple(_field(raw, "checks", ALL_CHECKS, _list_of(_string),
                            "a list of check names")),
        output_dir=_field(raw, "output_dir", None, _optional(_string), "a string"),
        symmetrize=_field(raw, "symmetrize", False, _boolean, "true or false"),
        **kwargs,
    )
    for name in ("n", "n_floor"):
        _require(8 <= getattr(cfg, name) <= MAX_VERTICES,
                 f"{name} must be at least 8 and at most 2**20 ({MAX_VERTICES})")
    for name in ("dt", "t_max", "l_floor", "c_cfl", "dt_curvature_frac",
                 "gc_kappa_tol", "admissible_tol"):
        _require(getattr(cfg, name) > 0.0, f"{name} must be positive")
    for name in ("checkpoint_every", "z_every", "simple_every"):
        _require(getattr(cfg, name) >= 1, f"{name} must be >= 1")
    # splitmix64 keeps the low 64 bits of the seed, so a larger one would draw
    # the same curve as a smaller seed under another config hash
    _require(0 <= cfg.seed < 2 ** 64, "seed must be nonnegative and below 2**64")
    _require(cfg.a is None or cfg.a >= 0.0, "a must be nonnegative when given")
    unknown_checks = set(cfg.checks) - set(ALL_CHECKS)
    _require(not unknown_checks, f"unknown checks: {sorted(unknown_checks)}")
    if cfg.symmetrize:
        _require(cfg.n % 2 == 0, "symmetrize requires an even vertex count")
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
        raise ConfigParseError(f"config {path} is not valid JSON: {exc}") from exc
    cfg = config_from_dict(raw)
    # orthonormal_basis's threshold, checked here so that no run begins; not
    # in config_from_dict, which also reads the manifests of earlier error runs
    if cfg.generator.kind in ("great_circle", "fourier_perturbed"):
        _require(math.hypot(*cfg.generator.axis) >= 1e-14,
                 "generator.axis must be a nonzero vector")
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    out = asdict(cfg)
    out["generator"] = {k: v for k, v in asdict(cfg.generator).items() if v not in (None, ())}
    out["generator"]["axis"] = list(cfg.generator.axis)
    if cfg.generator.modes:
        out["generator"]["modes"] = list(cfg.generator.modes)
        out["generator"]["amplitudes"] = list(cfg.generator.amplitudes)
    out["checks"] = list(cfg.checks)
    return out


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
