"""The benchmark's workloads: inputs made from the seed, warm-up inputs, checks.

Each workload is a list of operations.  An operation is one call of the
shadowdof command line on a generated YAML scenario; its check reads the
files the call wrote and compares them with values from bench_oracles.
A check reports either a failed operation (an accuracy the program claims
but misses) or problems (output that is wrong), which make the run
incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import bench_oracles as oracles

TWO_PI = 2.0 * math.pi
SHADOW_CLAIM = 1e-3  # the ~0.1 % accuracy cli.reproduce claims for its 48x96 sweep rule


@dataclass
class Outcome:
    failed: str | None = None  # why the operation failed, if it did
    problems: list[str] = field(default_factory=list)
    energy_missed: float | None = None

    def expect(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)


@dataclass
class Op:
    name: str
    command: str  # shadowdof subcommand
    scenario: dict  # written as YAML for the program
    check: Callable[[Path], Outcome] | None = None


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _summary(out: Path) -> dict:
    with open(out / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def _table(path: Path) -> np.ndarray:
    """Numeric rows of a CSV written by the program (comment and header lines dropped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _check_spectrum_file(out: Path, s: dict, res: Outcome) -> np.ndarray:
    """Spectrum identities every spectrum.csv must satisfy; returns sigma."""
    spec = _table(out / "spectrum.csv")
    sigma, zeta = spec[:, 1], spec[:, 2]
    res.expect(bool(np.all(sigma >= 0) and np.all(np.diff(sigma) <= 0)),
               "sigma not nonnegative and descending")
    res.expect(abs(math.fsum(zeta) - 1.0) < 1e-12, "zeta does not sum to one")
    res.expect(np.allclose(spec[:, 3], zeta * s["n_a"], rtol=1e-14, atol=0),
               "zeta_times_na column disagrees with zeta * n_a")
    n_e = math.fsum(sigma) ** 2 / math.fsum(sigma * sigma)
    res.expect(_rel(s["n_e"], n_e) < 1e-9, "summary n_e disagrees with the spectrum")
    return sigma


def _plate(origin, u, v) -> dict:
    return {"kind": "plate", "origin": list(origin), "u": list(u), "v": list(v)}


def _polygon(vertices, normal) -> dict:
    return {"kind": "planar_polygon", "vertices": [list(p) for p in vertices],
            "normal": list(normal)}


# ---------------------------------------------------------------------------
# squares_sketch: randomized spectrum of two parallel unit squares at d = 1

SQUARE_T = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
SQUARE_R = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def _squares_scenario(name, target_ndof, seed, n_theta, n_phi) -> dict:
    # the layout of scenarios/squares_parallel.yaml
    return {"name": name, "dimension": 3,
            "transmitter": {"parts": [_plate(*SQUARE_T)]},
            "receiver": {"parts": [_plate(*SQUARE_R)]},
            "target_ndof": target_ndof,
            "spectrum": {"method": "randomized", "p_factor": 3.0, "power_iters": 1,
                         "seed": seed},
            "quadrature": {"n_theta": n_theta, "n_phi": n_phi}}


class SquaresSketch:
    name = "squares_sketch"

    def __init__(self, seed: int):
        self.seed = seed
        self._frobenius: dict[float, tuple] = {}

    def ops(self) -> list[Op]:
        scenario = _squares_scenario("squares-parallel-d1", 100, self.seed, 96, 192)
        return [Op("squares_d1", "spectrum", scenario, self.check)]

    def warmup(self) -> list[Op]:
        return [Op("warm_squares", "spectrum", _squares_scenario("warm", 10, 0, 24, 48))]

    def _samples(self, spacing: float):
        if spacing not in self._frobenius:
            tx = oracles.plate_samples(*SQUARE_T, spacing)
            rx = oracles.plate_samples(*SQUARE_R, spacing)
            self._frobenius[spacing] = (tx.shape[0], rx.shape[0],
                                        oracles.frobenius_sq_scalar3d(tx, rx))
        return self._frobenius[spacing]

    def check(self, out: Path) -> Outcome:
        res = Outcome()
        s = _summary(out)
        res.expect(s["method"] == "randomized(P=300, power_iters=1)",
                   f"unexpected method {s['method']}")
        res.expect(s["seed"] == self.seed, "summary seed is not the scenario seed")
        hottel = oracles.hottel_opposed_rectangles(1.0, 1.0, 1.0)
        err = _rel(s["shadow_total"], hottel)
        res.expect(err < 1e-3, f"shadow total off Hottel's closed form by {err:.2e}")
        n_t, n_r, frob = self._samples(s["wavelength"] / 5.0)
        res.expect((s["n_t"], s["n_r"]) == (n_t, n_r),
                   f"sample counts {s['n_t']}x{s['n_r']}, expected {n_t}x{n_r}")
        sigma = _check_spectrum_file(out, s, res)
        res.expect(sigma.shape[0] == 300, "sketch should give P = 300 values")
        e, bound = oracles.zeta_error_bound(sigma, frob, round(s["n_a"]))
        res.energy_missed = e
        res.expect(e > -1e-12, f"sketch captured more than ||H||_F^2 (e = {e:.2e})")
        res.expect(bound < 1e-2, f"interlacing bound on top-N_a zeta error is {bound:.2e}")
        return res


# ---------------------------------------------------------------------------
# farfield_dense: disc radiating to 512 far-field ports, full and quarter arcs

DISC_RADIUS = 1.0


def _disc_scenario(name, target_ndof, arc) -> dict:
    return {"name": name, "dimension": 2,
            "transmitter": {"parts": [{"kind": "disc", "center": [0.0, 0.0],
                                       "radius": DISC_RADIUS}]},
            "receiver": {"farfield": {"n_ports": 512, "phi_range": list(arc)}},
            "target_ndof": target_ndof,
            "spectrum": {"method": "dense", "seed": 0}}


class FarfieldDense:
    name = "farfield_dense"

    def __init__(self, seed: int):
        start = TWO_PI * float(np.random.default_rng(seed).random())
        self.arcs = {"full": (0.0, TWO_PI), "quarter": (start, start + 0.5 * math.pi)}

    def ops(self) -> list[Op]:
        return [Op(f"disc_{label}", "spectrum", _disc_scenario(f"cyl_{label}", 100, arc),
                   lambda out, arc=arc: self.check(out, arc))
                for label, arc in self.arcs.items()]

    def warmup(self) -> list[Op]:
        return [Op(f"warm_{label}", "spectrum", _disc_scenario("warm", 10, arc))
                for label, arc in (("full", (0.0, TWO_PI)), ("quarter", (0.0, 0.5 * math.pi)))]

    def check(self, out: Path, arc) -> Outcome:
        res = Outcome()
        s = _summary(out)
        width = arc[1] - arc[0]
        total = 2.0 * DISC_RADIUS * width
        res.expect(s["method"] == "dense", f"unexpected method {s['method']}")
        res.expect(_rel(s["shadow_total"], total) < 1e-12,
                   f"shadow total {s['shadow_total']!r} is not 2a x arc = {total!r}")
        wavelength = total / 100.0
        res.expect(_rel(s["wavelength"], wavelength) < 1e-12, "wavelength is not L_TR / N_a")
        n_t = oracles.disc_sample_count(DISC_RADIUS, wavelength / 5.0)
        res.expect((s["n_t"], s["n_r"]) == (n_t, 512),
                   f"sample counts {s['n_t']}x{s['n_r']}, expected {n_t}x512")
        sigma = _check_spectrum_file(out, s, res)
        res.expect(sigma.shape[0] == min(512, n_t),
                   "dense spectrum should have min(N_R, N_T) values")
        frob = width * n_t
        res.energy_missed = 1.0 - math.fsum(sigma) / frob
        res.expect(abs(res.energy_missed) < 1e-10,
                   f"sum(sigma) differs from arc x N_T by {res.energy_missed:.2e}")
        res.expect(_rel(s["n_e"], s["n_a"]) < 0.15,
                   f"N_e = {s['n_e']:.2f} not within 15 % of N_a = {s['n_a']:.2f}")
        return res


# ---------------------------------------------------------------------------
# shadow_sweep: 3D mutual-shadow totals of square-plate pairs (fig_shadow_r2r)

# The seed picks separations from this grid, on which the 48x96 rule meets
# its 0.1 % claim for all three pairs (largest error 4.3e-4).  Farther
# separations miss it at some d and not others, so a seed could not draw
# them without making the failure count depend on the seed; one fixed
# total, the shifted pair at d/l = 10, stands for them in every round.
# One separation is drawn from each run of five neighbouring grid values,
# so every seed spreads its draws over the whole range and costs the same.
SEPARATIONS = np.geomspace(0.1, 0.5, 25)
STRATUM = 5
FAILING_PAIR = ("shifted", 10.0)


def _pair(kind: str, d: float):
    """Receiver plate (origin, u, v) of fig_shadow_r2r's pairs at separation d."""
    if kind == "parallel":
        return (0.0, 0.0, d), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    if kind == "shifted":
        return (d, 0.0, d), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    return (0.0, 0.0, d), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)  # end-fire, in the xz-plane


def _pair_scenario(name, kind, d, n_theta, n_phi) -> dict:
    origin, u, v = _pair(kind, d)
    verts = oracles.plate_vertices(origin, u, v).tolist()
    normal = [0.0, 1.0, 0.0] if kind == "endfire" else [0.0, 0.0, 1.0]
    return {"name": name, "dimension": 3,
            "transmitter": {"parts": [_polygon(oracles.plate_vertices(*SQUARE_T).tolist(),
                                               [0.0, 0.0, 1.0])]},
            "receiver": {"parts": [_polygon(verts, normal)]},
            "target_ndof": 100,
            "quadrature": {"n_theta": n_theta, "n_phi": n_phi}}


class ShadowSweep:
    name = "shadow_sweep"
    n_theta, n_phi = 48, 96

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.pairs = []
        for kind in ("parallel", "shifted", "endfire"):
            starts = np.arange(0, len(SEPARATIONS), STRATUM)
            picks = starts + rng.integers(0, STRATUM, starts.size)
            self.pairs += [(kind, float(SEPARATIONS[i])) for i in picks]
        self.pairs.append(FAILING_PAIR)
        self._exchange: dict[tuple, float] = {}

    def ops(self) -> list[Op]:
        return [Op(f"{kind}_d{d:.6g}", "shadow",
                   _pair_scenario(f"{kind}_d{d}", kind, d, self.n_theta, self.n_phi),
                   lambda out, kind=kind, d=d: self.check(out, kind, d))
                for kind, d in self.pairs]

    def warmup(self) -> list[Op]:
        return [Op("warm_pair", "shadow", _pair_scenario("warm", "parallel", 0.3, 12, 24))]

    def check(self, out: Path, kind: str, d: float) -> Outcome:
        res = Outcome()
        s = _summary(out)
        total = s["shadow_total"]
        res.expect(s["n_directions"] == self.n_theta * self.n_phi, "wrong direction count")
        with open(out / "shadow.csv", encoding="utf-8") as fh:
            preamble = fh.readline().split()
        res.expect(float(preamble[3]) == total, "shadow.csv total differs from summary.json")
        rows = _table(out / "shadow.csv")
        weighted = math.fsum(rows[:, 2] * rows[:, 3])
        res.expect(_rel(weighted, total) < 1e-12, "total is not the weighted sum of shadow.csv")
        key = (kind, d)
        if key not in self._exchange:
            self._exchange[key] = oracles.exchange_integral(SQUARE_T, _pair(kind, d))
        err = _rel(total, self._exchange[key])
        if err > SHADOW_CLAIM:
            res.failed = f"{kind} d={d:g}: total off the exchange integral by {err:.2e}"
        return res


WORKLOADS = {w.name: w for w in (SquaresSketch, FarfieldDense, ShadowSweep)}
