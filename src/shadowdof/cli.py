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
import json
import math
import sys
from pathlib import Path

import numpy as np

from .capacity import inverse_eigen_curve, waterfill
from .errors import ShadowDofError
from .geometry import Disc, PlanarPolygon, Segment
from .scenario import (
    ScenarioConfig,
    FarFieldSpec,
    compute_shadow,
    compute_spectrum,
    build_channel,
    load_scenario,
    resolve_wavelength,
    run_scenario,
    validate,
)
from .shadow import Region, ndof_from_shadow, shadow_area_two_spheres

FIGURE_IDS = (
    "fig_ideal_squares",
    "fig_waterfill",
    "fig_cyl_coverage",
    "fig_lines_sweep",
    "fig_geos_2d",
    "fig_shadow_r2r",
    "fig_spectra_r2r",
    "fig_spheres_paraxial",
)


# ---------------------------------------------------------------------------
# Deterministic writers


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_rows(path: Path, header: list[str], rows, fmt: str = "csv",
                preamble: str | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = [dict(zip(header, [float(v) for v in row])) for row in rows]
        path = path.with_suffix(".json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if preamble:
            fh.write(preamble + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_shadow_csv(path, msr, fmt: str = "csv") -> Path:
    if msr.dim == 2:
        header = ["phi", "weight", "shadow"]
        rows = zip(msr.angles, msr.weights, msr.values)
    else:
        header = ["theta", "phi", "weight", "shadow"]
        rows = ((a[0], a[1], w, v) for a, w, v in zip(msr.angles, msr.weights, msr.values))
    preamble = f"# total = {_fmt(msr.total)} rule = {msr.rule}"
    return _write_rows(Path(path), header, rows, fmt, preamble=preamble)


def write_spectrum_csv(path, spec, n_a: float | None = None, fmt: str = "csv") -> Path:
    if n_a is None:
        header = ["n", "sigma", "zeta"]
        rows = ((i + 1, s, z) for i, (s, z) in enumerate(zip(spec.sigma, spec.zeta)))
    else:
        header = ["n", "sigma", "zeta", "zeta_times_na"]
        rows = ((i + 1, s, z, z * n_a)
                for i, (s, z) in enumerate(zip(spec.sigma, spec.zeta)))
    return _write_rows(Path(path), header, rows, fmt)


def write_capacity_csv(path, rows, fmt: str = "csv") -> Path:
    return _write_rows(Path(path), ["gamma", "capacity_bits", "active_modes"], rows, fmt)


def write_summary_json(path, summary: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_shadow(config: ScenarioConfig, out: Path, fmt: str, threads: int) -> int:
    msr = compute_shadow(config, threads=threads)
    summary = {"name": config.name, "dimension": config.dimension,
               "shadow_total": msr.total if msr else 0.0,
               "n_directions": msr.n_directions if msr else 0}
    if msr is not None:
        write_shadow_csv(out / "shadow.csv", msr, fmt)
        if msr.total > 0:
            lam = resolve_wavelength(config, msr.total)
            summary["wavelength"] = lam
            summary["n_a"] = ndof_from_shadow(msr.total, lam, config.model).n_a
    write_summary_json(out / "summary.json", summary)
    return 0


def _cmd_ndof(config: ScenarioConfig, out: Path, fmt: str, threads: int) -> int:
    msr = compute_shadow(config, threads=threads)
    total = msr.total if msr is not None else 0.0
    summary = {"name": config.name, "dimension": config.dimension,
               "model": config.model, "shadow_total": total}
    if total > 0:
        lam = resolve_wavelength(config, total)
        summary["wavelength"] = lam
        for model in (("scalar2d",) if config.dimension == 2 else ("scalar3d", "em3d")):
            summary[f"n_a_{model}"] = ndof_from_shadow(total, lam, model).n_a
        summary["n_a"] = ndof_from_shadow(total, lam, config.model).n_a
    else:
        summary["n_a"] = 0.0
    write_summary_json(out / "summary.json", summary)
    return 0


def _cmd_spectrum(config: ScenarioConfig, out: Path, fmt: str, threads: int,
                  method: str | None) -> int:
    summary, msr, spec = run_scenario(config, threads=threads, method=method)
    if msr is not None:
        write_shadow_csv(out / "shadow.csv", msr, fmt)
    if spec is not None:
        write_spectrum_csv(out / "spectrum.csv", spec, n_a=summary["n_a"], fmt=fmt)
    write_summary_json(out / "summary.json", summary)
    return 0


def _cmd_capacity(config: ScenarioConfig, out: Path, fmt: str, threads: int,
                  method: str | None, gammas, rho: float, export_modes: bool) -> int:
    msr = compute_shadow(config, threads=threads)
    total = msr.total if msr is not None else 0.0
    if total <= 0:
        raise ShadowDofError("zero total shadow: no channel to allocate power over")
    lam = resolve_wavelength(config, total)
    n_a = ndof_from_shadow(total, lam, config.model).n_a
    op, _, _ = build_channel(config, lam, threads=threads)
    spec = compute_spectrum(config, op, n_a, method=method)
    nu = spec.sigma / rho
    rows = []
    for gamma in gammas:
        res = waterfill(nu, gamma)
        rows.append((gamma, res.capacity_bits, res.active_count))
    write_capacity_csv(out / "capacity.csv", rows, fmt)
    if export_modes:
        _write_rows(out / "modes.csv", ["n", "nu"],
                    ((i + 1, v) for i, v in enumerate(nu)), fmt)
    write_summary_json(out / "summary.json", {
        "name": config.name, "n_a": n_a, "n_e": spec.n_effective, "n_k": spec.n_knee,
        "wavelength": lam, "rho": rho, "gammas": list(gammas), "method": spec.method,
        "seed": config.seed})
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


def _squares_config(d: float, n_a: float, method: str = "randomized",
                    shift: float = 0.0, rotated: bool = False) -> ScenarioConfig:
    t = Region((_square_plate(0.0),), "T")
    r = Region((_vertical_plate(d) if rotated else _square_plate(d, shift=shift),), "R")
    return ScenarioConfig(name=f"squares_d{d}", transmitter=t, receiver=r,
                          target_ndof=n_a, method=method, seed=0,
                          n_theta=96, n_phi=192)


def _lines_config(l1: float, l2: float, d: float, n_a: float,
                  rot: float = 0.0) -> ScenarioConfig:
    t = Region((Segment([-l1 / 2, 0.0], [l1 / 2, 0.0]),), "T")
    half = np.array([math.cos(rot), math.sin(rot)]) * (l2 / 2)
    center = np.array([0.0, d])
    r = Region((Segment(center - half, center + half),), "R")
    return ScenarioConfig(name=f"lines_d{d}", transmitter=t, receiver=r,
                          target_ndof=n_a, method="dense", seed=0, n_directions=4096)


def _spectrum_curve_rows(spec, n_a: float):
    return ((float(n + 1) / n_a, z * n_a) for n, z in enumerate(spec.zeta))


def reproduce(figure_id: str, out_dir, na_list=None, threads: int = 1,
              fmt: str = "csv") -> list[Path]:
    """Write the plot data of one figure family at desk-scale parameters."""
    out = Path(out_dir) / figure_id
    written: list[Path] = []

    if figure_id == "fig_ideal_squares":
        written.append(_write_rows(out / "ideal_channel.csv",
                                   ["n_over_na", "zeta_times_na"],
                                   [(0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (2.0, 0.0)], fmt))
        for n_a in na_list or (50, 100):
            cfg = _squares_config(1.0, float(n_a))
            summary, _, spec = run_scenario(cfg, threads=threads)
            written.append(_write_rows(out / f"squares_na{int(n_a)}.csv",
                                       ["n_over_na", "zeta_times_na"],
                                       _spectrum_curve_rows(spec, summary["n_a"]), fmt))
        return written

    if figure_id == "fig_waterfill":
        for n_a in na_list or (50, 100):
            cfg = _squares_config(1.0, float(n_a))
            summary, _, spec = run_scenario(cfg, threads=threads)
            curve = inverse_eigen_curve(spec.zeta, summary["n_a"])
            finite = np.isfinite(curve)
            rows = ((float(n + 1) / summary["n_a"], c)
                    for n, c in enumerate(curve[finite]))
            written.append(_write_rows(out / f"inverse_na{int(n_a)}.csv",
                                       ["n_over_na", "inverse_zeta_na"], rows, fmt))
        return written

    if figure_id == "fig_cyl_coverage":
        for n_a in na_list or (100,):
            for label, phi_range in (("full", (0.0, 2 * math.pi)),
                                     ("quarter", (0.0, math.pi / 2))):
                t = Region((Disc([0.0, 0.0], 1.0),), "T")
                cfg = ScenarioConfig(
                    name=f"cyl_{label}", transmitter=t,
                    receiver=FarFieldSpec(2, phi_range=phi_range, n_ports=512),
                    target_ndof=float(n_a), method="dense", seed=0)
                summary, _, spec = run_scenario(cfg, threads=threads)
                written.append(_write_rows(out / f"cyl_{label}_na{int(n_a)}.csv",
                                           ["n_over_na", "zeta_times_na"],
                                           _spectrum_curve_rows(spec, summary["n_a"]), fmt))
        return written

    if figure_id == "fig_lines_sweep":
        for n_a in na_list or (5, 10, 50):
            for d in (0.1, 0.5, 1.0, 5.0):
                cfg = _lines_config(1.0, 0.5, d, float(n_a))
                summary, _, spec = run_scenario(cfg, threads=threads)
                written.append(_write_rows(
                    out / f"lines_na{int(n_a)}_d{d}.csv",
                    ["n_over_na", "zeta_times_na"],
                    _spectrum_curve_rows(spec, summary["n_a"]), fmt))
        return written

    if figure_id == "fig_geos_2d":
        sweeps = np.logspace(math.log10(0.05), math.log10(20.0), 25)
        curves: dict[str, list] = {}
        for d in sweeps:
            d = float(d)
            cases = {
                "parallel": _lines_config(1.0, 0.5, d, 10.0),
                "rotated_20deg": _lines_config(1.0, 0.5, d, 10.0, rot=math.pi / 9),
                "rotated_40deg": _lines_config(1.0, 0.5, d, 10.0, rot=2 * math.pi / 9),
                "rectangles": _rectangles_config(d),
            }
            for label, cfg in cases.items():
                msr = compute_shadow(cfg, threads=threads)
                curves.setdefault(label, []).append((d, msr.total))
        for label, rows in curves.items():
            written.append(_write_rows(out / f"{label}.csv",
                                       ["d_over_l", "shadow_over_l"], rows, fmt))
        return written

    if figure_id == "fig_shadow_r2r":
        sweeps = np.logspace(math.log10(0.1), math.log10(10.0), 21)
        setups = {"parallel": {}, "shifted": {"shift": True}, "rotated": {"rotated": True}}
        for label, opts in setups.items():
            rows = []
            for d in sweeps:
                d = float(d)
                cfg = _squares_config(d, 100.0, shift=(d if opts.get("shift") else 0.0),
                                      rotated=bool(opts.get("rotated")))
                # plot-data resolution: against the plate exchange integral, 24 of
                # the 63 totals at 48x96 miss 0.1 %, the worst by 6.0 % (shifted
                # pair, d/l = 10); every total up to d/l = 0.5 stays within 0.1 %
                cfg = dataclasses.replace(cfg, n_theta=48, n_phi=96)
                msr = compute_shadow(cfg, threads=threads)
                rows.append((d, msr.total))
            written.append(_write_rows(out / f"{label}.csv",
                                       ["d_over_l", "area_over_l2"], rows, fmt))
        return written

    if figure_id == "fig_spectra_r2r":
        for n_a in na_list or (50, 100):
            for d in (0.5, 1.0, 2.0):
                cfg = _squares_config(d, float(n_a))
                summary, _, spec = run_scenario(cfg, threads=threads)
                written.append(_write_rows(
                    out / f"squares_na{int(n_a)}_d{d}.csv",
                    ["n_over_na", "zeta_times_na"],
                    _spectrum_curve_rows(spec, summary["n_a"]), fmt))
        return written

    if figure_id == "fig_spheres_paraxial":
        hs = np.logspace(math.log10(1.05), math.log10(20.0), 30)
        for ratio in (1.0, 0.5, 0.25):
            a1, a2 = 1.0, ratio
            rows = []
            for mult in hs:
                h = float(mult) * (a1 + a2)
                area = shadow_area_two_spheres(a1, a2, h)
                parax = math.pi**2 * a1**2 * a2**2 / h**2
                rows.append((float(mult), area / parax))
            written.append(_write_rows(out / f"ratio_{ratio}.csv",
                                       ["h_over_sum_radii", "area_over_paraxial"], rows, fmt))
        return written

    raise ShadowDofError(f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}")


def _rectangles_config(d: float) -> ScenarioConfig:
    from .geometry import ConvexPolygon

    t = Region((ConvexPolygon([[-0.5, -0.25], [0.5, -0.25], [0.5, 0.0], [-0.5, 0.0]]),), "T")
    r = Region((ConvexPolygon([[-0.25, d], [0.25, d], [0.25, d + 0.125], [-0.25, d + 0.125]]),),
               "R")
    return ScenarioConfig(name=f"rects_d{d}", transmitter=t, receiver=r,
                          target_ndof=10.0, method="dense", seed=0, n_directions=2048)


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowdof",
        description="Spatial degrees of freedom from mutual shadows and channel spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="scenario YAML path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--method", choices=("dense", "randomized"), default=None)

    for name in ("shadow", "ndof", "spectrum"):
        add_common(sub.add_parser(name))
    cap = sub.add_parser("capacity")
    add_common(cap)
    cap.add_argument("--gammas", default="0.5,1,10",
                     help="comma-separated SNR values")
    cap.add_argument("--rho", type=float, default=1.0,
                     help="scalar power-constraint R_x = rho * I")
    cap.add_argument("--modes", action="store_true", help="also export modal efficiencies")
    rep = sub.add_parser("reproduce")
    rep.add_argument("figure", choices=FIGURE_IDS)
    rep.add_argument("--out", default="out")
    rep.add_argument("--threads", type=int, default=1)
    rep.add_argument("--format", choices=("csv", "json"), default="csv")
    rep.add_argument("--na", default=None,
                     help="comma-separated target NDoF list overriding the default")
    val = sub.add_parser("validate")
    val.add_argument("--config", required=True)
    val.add_argument("--out", default=None)
    return parser


def _load_config(args) -> ScenarioConfig:
    config = load_scenario(args.config)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            na_list = None
            if args.na:
                na_list = [float(x) for x in args.na.split(",")]
            reproduce(args.figure, args.out, na_list=na_list, threads=args.threads,
                      fmt=args.format)
            return 0
        if args.command == "validate":
            config = load_scenario(args.config)
            return _cmd_validate(config, Path(args.out) if args.out else None)
        config = _load_config(args)
        out = Path(args.out)
        if args.command == "shadow":
            return _cmd_shadow(config, out, args.format, args.threads)
        if args.command == "ndof":
            return _cmd_ndof(config, out, args.format, args.threads)
        if args.command == "spectrum":
            return _cmd_spectrum(config, out, args.format, args.threads, args.method)
        if args.command == "capacity":
            gammas = [float(x) for x in args.gammas.split(",")]
            return _cmd_capacity(config, out, args.format, args.threads, args.method,
                                 gammas, args.rho, args.modes)
        raise ShadowDofError(f"unknown command {args.command!r}")
    except (ShadowDofError, ValueError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
