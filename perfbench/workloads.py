"""The benchmark's workloads: inputs, command sequences and output checks.

Each workload turns its seed into input files during untimed set-up, then
hands every iteration a list of `sphereflow` command lines that one child
process runs back to back. After the child exits, `check` compares the
outputs with a known answer (one verdict per command) and `measure` reads
the numbers the end-to-end metrics need from the outputs.

See README.md in this directory for why each workload exists and which
layers it loads.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

LN2 = math.log(2.0)
T_EXT_TOL = 0.01          # acceptance criterion 1: T_est within 1% of ln 2
CHORD_TOL = 1e-12         # sqrt(2 - 2 x.y) vs |x - y| differ by ~eps/d ~ 1e-13 at n = 2048

FINITE_TIME_CHECKS = ("chord_arc", "curvature_bound", "length_sandwich",
                      "improved_length", "tau_bracket", "roundness",
                      "fenchel", "length_decay")
GREAT_CIRCLE_CHECKS = ("chord_arc", "curvature_bound", "great_circle",
                       "fenchel", "length_decay")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class FlowWorkload:
    """simulate -> verify (-> report) on one configured flow."""

    def __init__(self, config: dict, kind: str, checks: tuple[str, ...],
                 with_report: bool, check_t_ext: bool):
        self.config = config
        self.kind = kind
        self.checks = checks
        self.with_report = with_report
        self.check_t_ext = check_t_ext
        self.config_path: Path | None = None

    def prepare(self, work: Path) -> None:
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2), encoding="utf-8")

    def commands(self, it_dir: Path, k: int) -> list[list[str]]:
        run = str(it_dir / "run")
        cmds = [["simulate", "--config", str(self.config_path), "--out", run],
                ["verify", "--run", run]]
        if self.with_report:
            cmds.append(["report", "--run", run])
        return cmds

    def check(self, it_dir: Path, k: int, results: list[dict]) -> list[str | None]:
        run = it_dir / "run"
        problems = []
        for res in results:
            name = res["argv"][0]
            if name == "verify" and (run / "verdicts.json").is_file():
                problems.append(self._check_verdicts(run) or
                                (f"verify exited {res['rc']}" if res["rc"] else None))
            elif res["rc"] != 0:
                problems.append(f"{name} exited {res['rc']}")
            elif name == "simulate":
                problems.append(self._check_outcome(run))
            else:
                problems.append(None if self.kind in res["stdout"]
                                else f"report does not name outcome {self.kind}")
        return problems

    def _check_outcome(self, run: Path) -> str | None:
        outcome = _read_json(run / "manifest.json")["outcome"]
        if outcome.get("kind") != self.kind:
            return f"outcome {outcome.get('kind')!r}, expected {self.kind!r}"
        if self.check_t_ext:
            err = abs(outcome["T_est"] - LN2) / LN2
            if not err <= T_EXT_TOL:
                return f"T_est={outcome['T_est']} is {err:.2%} from ln 2"
        return None

    def _check_verdicts(self, run: Path) -> str | None:
        verdicts = _read_json(run / "verdicts.json")
        names = tuple(v["check"] for v in verdicts)
        if names != self.checks:
            return f"verdicts for {names}, expected {self.checks}"
        failed = [v["check"] for v in verdicts if v["verdict"] != "pass"]
        return f"failed verdicts {failed}" if failed else None

    def measure(self, it_dir: Path, k: int, results: list[dict]) -> dict:
        run = it_dir / "run"
        out = {res["argv"][0] + "_s": res["seconds"] for res in results}
        last = (run / "diagnostics.csv").read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)[1]
        steps = int(last.split(",", 1)[0])
        out["steps_per_s"] = steps / out["simulate_s"]
        out["work"], out["work_s"] = steps, out["simulate_s"]
        if self.check_t_ext:
            T_est = _read_json(run / "manifest.json")["outcome"]["T_est"]
            out["t_ext_rel_err"] = abs(T_est - LN2) / LN2
        return out


def fourier_latitude_curve(n: int, modes, amplitudes, phases) -> np.ndarray:
    """Equator displaced in latitude by sum_k A_k cos(m_k u + ph_k).

    The curve is a latitude graph with |offset| < pi/2, hence embedded.
    """
    u = 2.0 * np.pi * np.arange(n) / n
    f = np.zeros(n)
    for m, amp, ph in zip(modes, amplitudes, phases):
        f += amp * np.cos(m * u + ph)
    return np.column_stack([np.cos(f) * np.cos(u), np.cos(f) * np.sin(u), np.sin(f)])


def _cum_lengths(p: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)
    out = np.empty(len(p) + 1)
    out[0] = 0.0
    np.cumsum(seg, out=out[1:])
    return out


class ProfileReference:
    """Brute-force binned minimum chord of one curve.

    Chords are |x - y| over every vertex pair. Separations z = ell/L use the
    same arclength arithmetic as the program, so each pair lands in the same
    bin (k/2m, (k+1)/2m] bit for bit.
    """

    def __init__(self, points: np.ndarray, n_bins: int, block: int = 256):
        self.p = points
        self.s = _cum_lengths(points)
        self.L = float(self.s[-1])
        self.edges = np.linspace(0.0, 0.5, n_bins + 1)
        self.n_bins = n_bins
        n = len(points)
        psi = np.full(n_bins, np.inf)
        cols = np.arange(n)
        for i0 in range(0, n - 1, block):
            rows = np.arange(i0, min(i0 + block, n - 1))
            d = np.linalg.norm(points[rows][:, None, :] - points[None, :, :], axis=2)
            bins = self._bins(self.s[cols][None, :] - self.s[rows][:, None])
            ok = (cols[None, :] > rows[:, None]) & (bins >= 0) & (bins < n_bins)
            np.minimum.at(psi, bins[ok], d[ok])
        psi[np.isinf(psi)] = np.nan
        self.psi = psi

    def _bins(self, arc):
        ell = np.minimum(arc, self.L - arc)
        return np.searchsorted(self.edges, ell / self.L, side="left") - 1

    def mismatch(self, csv_path: Path) -> str | None:
        """First disagreement between a profile CSV and this reference."""
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "z,psi,i,j" or len(lines) != self.n_bins + 1:
            return f"{csv_path.name}: unexpected header or {len(lines) - 1} bins"
        for k, line in enumerate(lines[1:]):
            _, psi, i, j = line.split(",")
            psi, i, j = float(psi), int(i), int(j)
            ref = self.psi[k]
            if math.isnan(ref) or math.isnan(psi):
                if not (math.isnan(ref) and math.isnan(psi)):
                    return f"bin {k}: psi={psi}, reference {ref}"
                continue
            if abs(psi - ref) > CHORD_TOL:
                return f"bin {k}: psi={psi!r}, reference {ref!r}"
            d_ij = float(np.linalg.norm(self.p[i] - self.p[j]))
            bin_ij = int(self._bins(np.array([self.s[j] - self.s[i]]))[0])
            if not (0 <= i < j < len(self.p)) or bin_ij != k or abs(d_ij - ref) > CHORD_TOL:
                return f"bin {k}: pair ({i}, {j}) has chord {d_ij!r} in bin {bin_ij}"
        return None


class ProfileWorkload:
    """`profile` over Fourier-perturbed curves; one curve per iteration."""

    MODES = (0, 2, 3)
    AMPLITUDES = (0.45, 0.08, 0.05)

    def __init__(self, seed: int, n: int, n_curves: int, n_bins: int):
        self.seed = seed
        self.n = n
        self.n_curves = n_curves
        self.n_bins = n_bins
        self.curves: list[Path] = []
        self.references: list[ProfileReference] = []

    def prepare(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        for c in range(self.n_curves):
            phases = rng.uniform(0.0, 2.0 * np.pi, size=len(self.MODES))
            p = fourier_latitude_curve(self.n, self.MODES, self.AMPLITUDES, phases)
            # the program renormalises rows off the sphere by more than 1e-13;
            # these are unit to round-off, so it reads exactly these doubles
            if np.max(np.abs(np.linalg.norm(p, axis=1) - 1.0)) > 1e-13:
                raise RuntimeError("generated curve is not on the unit sphere")
            path = work / f"curve{c}.csv"
            rows = "\n".join(f"{x!r},{y!r},{z!r}" for x, y, z in p.tolist())
            path.write_text("x,y,z\n" + rows + "\n", encoding="utf-8")
            self.curves.append(path)
            self.references.append(ProfileReference(p, self.n_bins))

    def commands(self, it_dir: Path, k: int) -> list[list[str]]:
        curve = self.curves[k % self.n_curves]
        return [["profile", "--curve", str(curve), "--bins", str(self.n_bins),
                 "--out", str(it_dir)]]

    def check(self, it_dir: Path, k: int, results: list[dict]) -> list[str | None]:
        res = results[0]
        if res["rc"] != 0:
            return [f"profile exited {res['rc']}"]
        curve = self.curves[k % self.n_curves]
        if not (it_dir / f"{curve.stem}_profile.svg").is_file():
            return ["profile wrote no SVG"]
        ref = self.references[k % self.n_curves]
        return [ref.mismatch(it_dir / f"{curve.stem}_profile.csv")]

    def measure(self, it_dir: Path, k: int, results: list[dict]) -> dict:
        seconds = results[0]["seconds"]
        pairs = self.n * (self.n - 1) // 2
        return {"profile_s": seconds, "pairs_per_s": pairs / seconds,
                "work": pairs, "work_s": seconds}


WORKLOAD_NAMES = ("shrink_round", "great_circle_pipeline", "profile_large")


def make(name: str, seed: int, toy: bool):
    """Workload `name` at full size, or at toy size for the self-test."""
    if name == "shrink_round":
        # the parallel_run_hires fixture at n=512, dt=2e-4 (about 2 s instead
        # of 12 s; README.md, "Steadiness") with the pairwise passes switched
        # off; deterministic, so the seed is unused
        config = {"generator": {"kind": "parallel", "theta0": math.pi / 3},
                  "n": 512, "dt": 2e-4, "t_max": 5.0, "checkpoint_every": 1000,
                  "z_every": 10 ** 9, "simple_every": 10 ** 9}
        if toy:
            config.update(n=64, dt=5e-4, checkpoint_every=100)
        return FlowWorkload(config, "finite_time_shrink", FINITE_TIME_CHECKS,
                            with_report=False, check_t_ext=True)
    if name == "great_circle_pipeline":
        # The conftest perturbed-equator curve (phases from seed 7), about
        # an axis drawn from the workload seed. Phases drawn from the workload
        # seed would fail the curvature_bound check at t = 0 on about half of
        # all seeds (README.md, "Known failure"), so the seed only rotates it.
        # At dt=2e-3 the CFL cap sets every step, as it does for any
        # dt >= 1e-3, and the flow reaches its curvature plateau before t_max.
        axis = np.random.default_rng(seed).normal(size=3)
        config = {"generator": {"kind": "fourier_perturbed",
                                "axis": (axis / np.linalg.norm(axis)).tolist(),
                                "modes": [1, 3], "amplitudes": [0.2, 0.1],
                                "antipodal_symmetric": True},
                  "n": 512, "dt": 2e-3, "t_max": 4.0, "seed": 7,
                  "checkpoint_every": 25}
        if toy:
            # below n=512 the discrete curvature overshoots the curvature
            # bound's 2% tolerance, so the toy keeps n and stops at t=1, where
            # the curve already passes the great_circle check
            config.update(t_max=1.0)
        return FlowWorkload(config, "great_circle", GREAT_CIRCLE_CHECKS,
                            with_report=True, check_t_ext=False)
    if name == "profile_large":
        # n=2048 takes under 1 s per curve, so a run has a few dozen samples
        return ProfileWorkload(seed, n=64 if toy else 2048, n_curves=1 if toy else 3,
                               n_bins=256)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
