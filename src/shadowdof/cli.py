"""Command-line harness: scenario runs, figure reproduction, plot-data export.

Subcommands: shadow, ndof, spectrum, capacity, reproduce, validate.
All CSV output uses '.' decimals, a header row, LF line endings, and
shortest round-trip float formatting, so identical configs and seeds
produce byte-identical files.  Errors are reported as one JSON object on
stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .capacity import inverse_eigen_curve, waterfill
from .errors import ShadowDofError
from .geometry import ConvexPolygon, Disc, PlanarPolygon, Segment
from .scenario import (
    ScenarioConfig,
    FarFieldSpec,
    compute_shadow,
    load_scenario,
    run_scenario,
    shadow_summary,
    validate,
)
from .shadow import Region, shadow_area_two_spheres


# ---------------------------------------------------------------------------
# Deterministic writers


def _column_texts(column) -> list[str] | np.ndarray:
    """CSV entry texts: str of integers, else repr once per distinct float64 bit pattern."""
    a = np.asarray(column)
    if a.dtype.kind in "iu":
        return list(map(str, a.tolist()))
    bits, index = np.unique(np.asarray(a, dtype=np.float64).view(np.uint64), return_inverse=True)
    return np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[index]


def _write_table(path, columns: dict, fmt: str = "csv", preamble: str | None = None) -> Path:
    """Named columns as CSV, or (fmt "json") as a list of rows of floats."""
    if fmt == "json":
        rows = [dict(zip(columns, map(float, row))) for row in zip(*columns.values())]
        return write_summary_json(Path(path).with_suffix(".json"), rows)
    path = Path(path)
    head = ([preamble] if preamble else []) + [",".join(columns)]
    lines = itertools.chain(head, map(",".join, zip(*map(_column_texts, columns.values()))))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while chunk := list(itertools.islice(lines, 256)):  # a bounded text per write
            fh.write("\n".join(chunk) + "\n")
    return path


def write_shadow_csv(path, msr, fmt: str = "csv") -> Path:
    angles = np.reshape(msr.angles, (msr.n_directions, -1)).T  # phi, or theta and phi
    columns = dict(zip(["phi"] if msr.dim == 2 else ["theta", "phi"], angles))
    return _write_table(path, {**columns, "weight": msr.weights, "shadow": msr.values}, fmt,
                        preamble=f"# total = {float(msr.total)!r} rule = {msr.rule}")


def write_spectrum_csv(path, spec, n_a: float, fmt: str = "csv") -> Path:
    return _write_table(path, {"n": np.arange(1, spec.sigma.shape[0] + 1), "sigma": spec.sigma,
                               "zeta": spec.zeta, "zeta_times_na": spec.zeta * n_a}, fmt)


def write_summary_json(path, summary) -> Path:
    """Sorted, indented JSON: a run summary, or the rows of a --format json file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_shadow(config: ScenarioConfig, out: Path, fmt: str, write_csv: bool) -> int:
    t0 = time.perf_counter()
    msr = compute_shadow(config)
    t1 = time.perf_counter()
    if write_csv and msr is not None:
        write_shadow_csv(out / "shadow.csv", msr, fmt)
    timings = {"shadow_s": t1 - t0, "write_s": time.perf_counter() - t1}
    write_summary_json(out / "summary.json", {**shadow_summary(config, msr), "timings": timings})
    return 0


def _cmd_spectrum(config: ScenarioConfig, out: Path, fmt: str, threads: int) -> int:
    summary, msr, spec = run_scenario(config, threads=threads)
    t0 = time.perf_counter()
    if msr is not None:
        write_shadow_csv(out / "shadow.csv", msr, fmt)
    if spec is not None:
        write_spectrum_csv(out / "spectrum.csv", spec, summary["n_a"], fmt)
    summary["timings"]["write_s"] = time.perf_counter() - t0
    write_summary_json(out / "summary.json", summary)
    return 0


def _cmd_capacity(config: ScenarioConfig, out: Path, fmt: str, threads: int,
                  gammas, rho: float, export_modes: bool) -> int:
    summary, _, spec = run_scenario(config, threads=threads)
    if spec is None:
        raise ShadowDofError("zero total shadow: no channel to allocate power over")
    nu = spec.sigma / rho
    results = [waterfill(nu, gamma) for gamma in gammas]
    t0 = time.perf_counter()
    _write_table(out / "capacity.csv", {
        "gamma": gammas, "capacity_bits": [r.capacity_bits for r in results],
        "active_modes": [r.active_count for r in results]}, fmt)
    if export_modes:
        _write_table(out / "modes.csv", {"n": np.arange(1, nu.shape[0] + 1), "nu": nu}, fmt)
    summary["timings"]["write_s"] = time.perf_counter() - t0
    write_summary_json(out / "summary.json", {**summary, "rho": rho, "gammas": list(gammas)})
    return 0


def _cmd_validate(config: ScenarioConfig, out: Path | None) -> int:
    report = validate(config)
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    sys.stdout.write(text + "\n")
    if out is not None:
        write_summary_json(out / "validate.json", report)
    return 0


# ---------------------------------------------------------------------------
# Figure reproduction (desk-scale parameter sets, one CSV per curve)


def _square_plate(z: float, shift: float = 0.0, side: float = 1.0) -> PlanarPolygon:
    return PlanarPolygon(
        [[shift, 0, z], [shift + side, 0, z], [shift + side, side, z], [shift, side, z]],
        [0, 0, 1.0])


def _vertical_plate(z: float, side: float = 1.0) -> PlanarPolygon:
    # plate in the xz-plane: end-fire relative to a z-stacked partner
    return PlanarPolygon(
        [[0, 0, z], [side, 0, z], [side, 0, z + side], [0, 0, z + side]], [0, 1.0, 0])


def _squares_config(d: float, n_a: float, shift: float = 0.0,
                    rotated: bool = False) -> ScenarioConfig:
    t = Region((_square_plate(0.0),), "T")
    r = Region((_vertical_plate(d) if rotated else _square_plate(d, shift=shift),), "R")
    return ScenarioConfig(name=f"squares_d{d}", transmitter=t, receiver=r,
                          target_ndof=n_a, method="randomized", seed=0,
                          n_theta=96, n_phi=192)


def _r2r_config(d: float, shift: float = 0.0, rotated: bool = False) -> ScenarioConfig:
    # plot-data resolution: against the plate exchange integral, 24 of the 63
    # totals at 48x96 miss 0.1 %, the worst by 6.0 % (shifted pair, d/l = 10);
    # every total up to d/l = 0.5 stays within 0.1 %
    return dataclasses.replace(_squares_config(d, 100.0, shift=shift, rotated=rotated),
                               n_theta=48, n_phi=96)


def _lines_config(l1: float, l2: float, d: float, n_a: float,
                  rot: float = 0.0) -> ScenarioConfig:
    t = Region((Segment([-l1 / 2, 0.0], [l1 / 2, 0.0]),), "T")
    half = np.array([math.cos(rot), math.sin(rot)]) * (l2 / 2)
    center = np.array([0.0, d])
    r = Region((Segment(center - half, center + half),), "R")
    return ScenarioConfig(name=f"lines_d{d}", transmitter=t, receiver=r,
                          target_ndof=n_a, method="dense", seed=0, n_directions=4096)


def _rectangles_config(d: float) -> ScenarioConfig:
    t = Region((ConvexPolygon([[-0.5, -0.25], [0.5, -0.25], [0.5, 0.0], [-0.5, 0.0]]),), "T")
    r = Region((ConvexPolygon([[-0.25, d], [0.25, d], [0.25, d + 0.125], [-0.25, d + 0.125]]),),
               "R")
    return ScenarioConfig(name=f"rects_d{d}", transmitter=t, receiver=r,
                          target_ndof=10.0, method="dense", seed=0, n_directions=2048)


def _cyl_config(label: str, phi_range, n_a: float) -> ScenarioConfig:
    return ScenarioConfig(name=f"cyl_{label}", transmitter=Region((Disc([0.0, 0.0], 1.0),), "T"),
                          receiver=FarFieldSpec(2, phi_range=phi_range, n_ports=512),
                          target_ndof=n_a, method="dense", seed=0)


# A curve is (file stem, header, columns): columns(threads) computes its x and y columns.

def _spectrum_curve(config: ScenarioConfig, inverse: bool = False):
    """n / N_a against zeta_n N_a, or against its finite reciprocals."""
    def columns(threads):
        summary, _, spec = run_scenario(config, threads=threads)
        n_a = summary["n_a"]
        if inverse:
            y = inverse_eigen_curve(spec.zeta, n_a)
            y = y[np.isfinite(y)]
        else:
            y = spec.zeta * n_a
        return np.arange(1, y.shape[0] + 1) / n_a, y
    return columns


def _shadow_curve(xs, config_of):
    """Each x against the total shadow of config_of(x)."""
    return lambda threads: (xs, [compute_shadow(config_of(float(x))).total for x in xs])


def _paraxial_curve(ratio: float):
    """h / (a1 + a2) against the shadow of spheres of radii 1 and ratio over pi^2 a2^2 / h^2."""
    def columns(threads):
        mults = np.logspace(math.log10(1.05), math.log10(20.0), 30).tolist()
        hs = [mult * (1.0 + ratio) for mult in mults]
        return mults, [shadow_area_two_spheres(1.0, ratio, h) / (math.pi**2 * ratio**2 / h**2)
                       for h in hs]
    return columns


_ZETA = ("n_over_na", "zeta_times_na")
_SHADOW_2D, _SHADOW_3D = ("d_over_l", "shadow_over_l"), ("d_over_l", "area_over_l2")
_GEOS_DS = np.logspace(math.log10(0.05), math.log10(20.0), 25)
_R2R_DS = np.logspace(math.log10(0.1), math.log10(10.0), 21)

# figure id -> (default N_a list, () for figures without one; N_a list -> curves)
FIGURES = {
    "fig_ideal_squares": ((50, 100), lambda nas: [
        ("ideal_channel", _ZETA,
         lambda threads: ([0.0, 1.0, 1.0, 2.0], [1.0, 1.0, 0.0, 0.0]))] + [
        (f"squares_na{int(n)}", _ZETA, _spectrum_curve(_squares_config(1.0, n)))
        for n in nas]),
    "fig_waterfill": ((50, 100), lambda nas: [
        (f"inverse_na{int(n)}", ("n_over_na", "inverse_zeta_na"),
         _spectrum_curve(_squares_config(1.0, n), inverse=True)) for n in nas]),
    "fig_cyl_coverage": ((100,), lambda nas: [
        (f"cyl_{label}_na{int(n)}", _ZETA, _spectrum_curve(_cyl_config(label, arc, n)))
        for n in nas for label, arc in (("full", (0.0, 2 * math.pi)),
                                        ("quarter", (0.0, math.pi / 2)))]),
    "fig_lines_sweep": ((5, 10, 50), lambda nas: [
        (f"lines_na{int(n)}_d{d}", _ZETA, _spectrum_curve(_lines_config(1.0, 0.5, d, n)))
        for n in nas for d in (0.1, 0.5, 1.0, 5.0)]),
    "fig_geos_2d": ((), lambda nas: [
        (label, _SHADOW_2D, _shadow_curve(_GEOS_DS, config_of))
        for label, config_of in (
            ("parallel", lambda d: _lines_config(1.0, 0.5, d, 10.0)),
            ("rotated_20deg", lambda d: _lines_config(1.0, 0.5, d, 10.0, rot=math.pi / 9)),
            ("rotated_40deg", lambda d: _lines_config(1.0, 0.5, d, 10.0, rot=2 * math.pi / 9)),
            ("rectangles", _rectangles_config))]),
    "fig_shadow_r2r": ((), lambda nas: [
        (label, _SHADOW_3D, _shadow_curve(_R2R_DS, config_of))
        for label, config_of in (
            ("parallel", _r2r_config),
            ("shifted", lambda d: _r2r_config(d, shift=d)),
            ("rotated", lambda d: _r2r_config(d, rotated=True)))]),
    "fig_spectra_r2r": ((50, 100), lambda nas: [
        (f"squares_na{int(n)}_d{d}", _ZETA, _spectrum_curve(_squares_config(d, n)))
        for n in nas for d in (0.5, 1.0, 2.0)]),
    "fig_spheres_paraxial": ((), lambda nas: [
        (f"ratio_{ratio}", ("h_over_sum_radii", "area_over_paraxial"), _paraxial_curve(ratio))
        for ratio in (1.0, 0.5, 0.25)]),
}
FIGURE_IDS = tuple(FIGURES)


def reproduce(figure_id: str, out_dir, na_list=None, threads: int = 1,
              fmt: str = "csv") -> list[Path]:
    """Write the plot data of one figure family at desk-scale parameters.

    Every curve is built (and every N_a checked) before the first is computed.
    """
    if figure_id not in FIGURES:
        raise ShadowDofError(f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}")
    default_na, curves_for = FIGURES[figure_id]
    if na_list and not default_na:
        raise ValueError(f"{figure_id} has no N_a to set; it takes no --na or na_list")
    curves = curves_for([float(n) for n in na_list or default_na])
    if len({stem for stem, _, _ in curves}) < len(curves):
        raise ValueError(f"N_a values {na_list} give two curves one file name; "
                         "file names carry the integer part of N_a")
    out = Path(out_dir) / figure_id
    return [_write_table(out / f"{stem}.csv", dict(zip(header, columns(threads))), fmt)
            for stem, header, columns in curves]


# ---------------------------------------------------------------------------
# Entry point


@functools.cache  # one parser per process; each parse_args call fills a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowdof",
        description="Spatial degrees of freedom from mutual shadows and channel spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    def add_scenario(name):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario YAML path")
        add_common(p)
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        return p

    def add_channel(name):
        p = add_scenario(name)
        p.add_argument("--method", choices=("dense", "randomized"), default=None)
        return p

    for name in ("shadow", "ndof"):
        add_scenario(name)
    add_channel("spectrum")
    cap = add_channel("capacity")
    cap.add_argument("--gammas", default="0.5,1,10",
                     help="comma-separated SNR values")
    cap.add_argument("--rho", type=float, default=1.0,
                     help="scalar power-constraint R_x = rho * I")
    cap.add_argument("--modes", action="store_true", help="also export modal efficiencies")
    rep = add_common(sub.add_parser("reproduce"))
    rep.add_argument("figure", choices=FIGURE_IDS)
    rep.add_argument("--na", default=None,
                     help="comma-separated target NDoF list overriding the default")
    val = sub.add_parser("validate")
    val.add_argument("--config", required=True)
    val.add_argument("--out", default=None)
    return parser


def _positive(flag: str, values) -> list[float]:
    values = [float(v) for v in values]
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ValueError(f"{flag} values must be finite and positive, got {values}")
    return values


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # arguments are checked before any work runs
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        if args.command == "reproduce":
            na_list = _positive("--na", args.na.split(",")) if args.na else None
            reproduce(args.figure, args.out, na_list, args.threads, args.format)
            return 0
        if args.command == "capacity":
            gammas = _positive("--gammas", args.gammas.split(","))
            _positive("--rho", [args.rho])
        config = load_scenario(args.config)
        if args.command == "validate":
            return _cmd_validate(config, Path(args.out) if args.out else None)
        overrides = {key: value for key in ("seed", "method")
                     if (value := getattr(args, key, None)) is not None}
        config = dataclasses.replace(config, **overrides)
        out = Path(args.out)
        if args.command in ("shadow", "ndof"):
            return _cmd_shadow(config, out, args.format, write_csv=args.command == "shadow")
        if args.command == "spectrum":
            return _cmd_spectrum(config, out, args.format, args.threads)
        return _cmd_capacity(config, out, args.format, args.threads, gammas, args.rho,
                             args.modes)
    except (ShadowDofError, ValueError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
