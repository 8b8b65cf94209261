"""Scenario configuration: YAML schema, validation, and the run pipeline.

A scenario declares the transmitter and receiver geometry, either a
wavelength or a target shadow-based NDoF (the wavelength then follows from
lambda = L_TR/N_a or its 3D analogue), the sampling density, and how the
spectrum is computed.  ``run_scenario`` wires the modules together:
shadow -> wavelength -> sampling -> channel -> spectrum, and returns
everything the CLI writes to disk.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
import yaml

from .channel import (
    DENSE_CAP_ENTRIES,
    assemble_channel,
    columns_per_source,
    ports_from_quadrature,
    sample_region,
)
from .errors import ScenarioError
from .geometry import ConvexPolygon, Disc, PlanarPolygon, Segment, Sphere
from .quadrature import circle_quadrature, scene_circle_quadrature, sphere_quadrature
from .shadow import (
    Region,
    ndof_from_shadow,
    region_min_distance,
    total_mutual_shadow,
    total_shadow,
    wavelength_for_ndof,
)
from .spectra import dense_entries, dense_spectrum, randomized_spectrum

__all__ = ["FarFieldSpec", "ScenarioConfig", "load_scenario", "validate", "run_scenario"]

TWO_PI = 2.0 * math.pi


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ScenarioError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class FarFieldSpec:
    """Far-field receiver coverage: a circle arc (2D) or sphere sector (3D)."""

    dimension: int
    phi_range: tuple[float, float] = (0.0, TWO_PI)
    theta_range: tuple[float, float] = (0.0, math.pi)
    n_ports: int = 512  # 2D port count
    n_theta_ports: int = 32
    n_phi_ports: int = 64
    polarized: bool = False

    def __post_init__(self):
        for name in ("n_ports", "n_theta_ports", "n_phi_ports"):
            _check_count(name, getattr(self, name), 1)

    def coverage(self) -> float:
        if self.dimension == 2:
            return self.phi_range[1] - self.phi_range[0]
        return (math.cos(self.theta_range[0]) - math.cos(self.theta_range[1])) * (
            self.phi_range[1] - self.phi_range[0])


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    name: str
    transmitter: Region
    receiver: Region | FarFieldSpec
    wavelength: float | None = None
    target_ndof: float | None = None
    delta_factor: float = 5.0
    kernel: str | None = None
    ndof_model: str | None = None
    method: str = "auto"  # dense | randomized | auto
    p_factor: float = 3.0
    power_iters: int = 1
    seed: int = 0
    n_directions: int = 4096
    n_theta: int = 128
    n_phi: int = 256

    def __post_init__(self):
        if (self.wavelength is None) == (self.target_ndof is None):
            raise ScenarioError("exactly one of wavelength / target_ndof must be given")
        for name in ("wavelength", "target_ndof", "delta_factor", "p_factor"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ScenarioError(f"{name} must be finite and positive")
        for name in ("n_directions", "n_theta", "n_phi"):
            _check_count(name, getattr(self, name), 1)
        _check_count("power_iters", self.power_iters, 0)
        if self.seed is not None:
            _check_count("seed", self.seed, 0)
        if self.method not in ("dense", "randomized", "auto"):
            raise ScenarioError("method must be dense, randomized, or auto")
        if self.method == "randomized" and self.seed is None:
            raise ScenarioError("randomized spectra need a seed")
        if self.ndof_model is not None:
            object.__setattr__(self, "ndof_model", str(self.ndof_model))

    @property
    def dimension(self) -> int:
        return self.transmitter.dimension

    @property
    def model(self) -> str:
        if self.ndof_model:
            return self.ndof_model
        return "scalar2d" if self.dimension == 2 else "scalar3d"

    @property
    def is_farfield(self) -> bool:
        return isinstance(self.receiver, FarFieldSpec)


# ---------------------------------------------------------------------------
# YAML parsing


def _build_shape(spec: dict):
    kind = spec.get("kind")
    if kind == "segment":
        return Segment(spec["start"], spec["end"])
    if kind == "polygon":
        return ConvexPolygon(np.asarray(spec["vertices"], dtype=float))
    if kind == "disc":
        return Disc(spec["center"], float(spec["radius"]))
    if kind == "sphere":
        return Sphere(spec["center"], float(spec["radius"]))
    if kind == "planar_polygon":
        return PlanarPolygon(np.asarray(spec["vertices"], dtype=float), spec["normal"])
    if kind == "plate":
        origin = np.asarray(spec["origin"], dtype=float)
        u = np.asarray(spec["u"], dtype=float)
        v = np.asarray(spec["v"], dtype=float)
        verts = np.array([origin, origin + u, origin + u + v, origin + v])
        n = np.cross(u, v)
        return PlanarPolygon(verts, n / np.linalg.norm(n))
    raise ScenarioError(f"unknown shape kind {kind!r}")


def _build_region(spec: dict, label: str) -> Region:
    parts = spec.get("parts")
    if not parts:
        raise ScenarioError(f"region {label!r} needs a parts list")
    try:
        return Region(tuple(_build_shape(p) for p in parts), label)
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"invalid region {label!r}: {exc}") from exc


def _build_farfield(spec: dict, dimension: int) -> FarFieldSpec:
    kwargs: dict = {"dimension": dimension}
    if "phi_range" in spec:
        lo, hi = spec["phi_range"]
        kwargs["phi_range"] = (float(lo), float(hi))
    if "theta_range" in spec:
        lo, hi = spec["theta_range"]
        kwargs["theta_range"] = (float(lo), float(hi))
    for key in ("n_ports", "n_theta_ports", "n_phi_ports"):
        if key in spec:
            kwargs[key] = spec[key]
    if "polarized" in spec:
        kwargs["polarized"] = bool(spec["polarized"])
    ff = FarFieldSpec(**kwargs)
    if ff.coverage() < 0:
        raise ScenarioError("far-field coverage must be nonnegative")
    return ff


def load_scenario(source) -> ScenarioConfig:
    """Build a ScenarioConfig from a YAML path, YAML text, or a dict."""
    if isinstance(source, dict):
        data = source
    else:
        text = source
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, TypeError):
            pass
        data = yaml.safe_load(text)
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a mapping")
    try:
        transmitter = _build_region(data["transmitter"], "T")
    except KeyError as exc:
        raise ScenarioError("scenario needs a transmitter") from exc
    recv_spec = data.get("receiver")
    if not isinstance(recv_spec, dict):
        raise ScenarioError("scenario needs a receiver")
    if "farfield" in recv_spec:
        receiver = _build_farfield(recv_spec["farfield"], transmitter.dimension)
    else:
        receiver = _build_region(recv_spec, "R")
        if receiver.dimension != transmitter.dimension:
            raise ScenarioError("transmitter and receiver dimensions differ")
    declared_dim = data.get("dimension")
    if declared_dim is not None and int(declared_dim) != transmitter.dimension:
        raise ScenarioError("declared dimension does not match the geometry")
    sampling = data.get("sampling", {}) or {}
    spectrum = data.get("spectrum", {}) or {}
    quad = data.get("quadrature", {}) or {}
    return ScenarioConfig(
        name=str(data.get("name", "scenario")),
        transmitter=transmitter,
        receiver=receiver,
        wavelength=data.get("wavelength"),
        target_ndof=data.get("target_ndof"),
        delta_factor=float(sampling.get("delta_factor", 5.0)),
        kernel=data.get("kernel"),
        ndof_model=data.get("ndof_model"),
        method=str(spectrum.get("method", "auto")),
        p_factor=float(spectrum.get("p_factor", 3.0)),
        power_iters=spectrum.get("power_iters", 1),
        seed=spectrum.get("seed", 0),
        n_directions=quad.get("n_directions", 4096),
        n_theta=quad.get("n_theta", 128),
        n_phi=quad.get("n_phi", 256),
    )


# ---------------------------------------------------------------------------
# Shadow and channel stages


def compute_shadow(config: ScenarioConfig):
    """Shadow result for the scenario (mutual, or transmitter-only for far field)."""
    t = config.transmitter
    if config.is_farfield:
        ff = config.receiver
        if ff.coverage() == 0:
            return None
        if t.dimension == 2:
            quad = scene_circle_quadrature(list(t.parts), config.n_directions,
                                           arc=ff.phi_range)
        else:
            quad = sphere_quadrature(config.n_theta, config.n_phi,
                                     theta_range=ff.theta_range, phi_range=ff.phi_range)
        return total_shadow(t, quad=quad)
    return total_mutual_shadow(t, config.receiver, n_directions=config.n_directions,
                               n_theta=config.n_theta, n_phi=config.n_phi)


def resolve_wavelength(config: ScenarioConfig, shadow_total: float) -> float:
    if config.wavelength is not None:
        return config.wavelength
    return wavelength_for_ndof(shadow_total, config.target_ndof, config.model)


def build_channel(config: ScenarioConfig, wavelength: float, threads: int = 1):
    """Sample the regions and assemble the channel operator."""
    spacing = wavelength / config.delta_factor
    tx = sample_region(config.transmitter, spacing)
    k = TWO_PI / wavelength
    if config.is_farfield:
        ff = config.receiver
        if config.dimension == 2:
            quad = circle_quadrature(ff.n_ports, arc=ff.phi_range)
        else:
            quad = sphere_quadrature(ff.n_theta_ports, ff.n_phi_ports,
                                     theta_range=ff.theta_range, phi_range=ff.phi_range)
        receiver = ports_from_quadrature(quad, polarized=ff.polarized)
    else:
        receiver = sample_region(config.receiver, spacing)
    return assemble_channel(tx, receiver, k, kind=config.kernel, threads=threads), tx, receiver


def compute_spectrum(config: ScenarioConfig, op, n_a: float, method: str | None = None):
    """Dense or randomized spectrum per the configured method ('auto' picks by size)."""
    method = method or config.method
    if method == "auto":
        method = "dense" if dense_entries(*op.shape) <= DENSE_CAP_ENTRIES else "randomized"
    if method == "dense":
        return dense_spectrum(op)
    p = int(math.ceil(config.p_factor * max(n_a, 1.0)))
    p = max(1, min(p, min(op.shape)))
    return randomized_spectrum(op, p, config.seed, config.power_iters)


def run_scenario(config: ScenarioConfig, threads: int = 1, method: str | None = None):
    """Full pipeline; returns (summary, shadow_result, spectrum_result).

    With zero shadow (empty coverage or disjoint shadows everywhere) no
    channel is built and the spectrum is None.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    msr = compute_shadow(config)
    timings["shadow_s"] = time.perf_counter() - t0
    total = msr.total if msr is not None else 0.0
    summary = {
        "name": config.name,
        "dimension": config.dimension,
        "model": config.model,
        "shadow_total": total,
        "n_directions": msr.n_directions if msr is not None else 0,
        "seed": config.seed,
    }
    if total <= 0.0:
        summary.update({"n_a": 0.0, "n_e": None, "n_k": None, "wavelength": None,
                        "method": None, "n_t": 0, "n_r": 0, "timings": timings})
        return summary, msr, None
    wavelength = resolve_wavelength(config, total)
    n_a = ndof_from_shadow(total, wavelength, config.model).n_a
    t1 = time.perf_counter()
    op, tx, receiver = build_channel(config, wavelength, threads=threads)
    timings["assemble_s"] = time.perf_counter() - t1
    t2 = time.perf_counter()
    spec = compute_spectrum(config, op, n_a, method=method)
    timings["spectrum_s"] = time.perf_counter() - t2
    summary.update({
        "wavelength": wavelength,
        "n_a": n_a,
        "n_e": spec.n_effective,
        "n_k": spec.n_knee,
        "method": spec.method,
        "n_t": op.n_cols,
        "n_r": op.n_rows,
        "timings": timings,
    })
    return summary, msr, spec


# ---------------------------------------------------------------------------
# Static validation


def validate(config: ScenarioConfig) -> dict:
    """Static checks without running: disjointness, coverage, size estimates."""
    violations: list[str] = []
    warnings: list[str] = []
    estimates: dict = {}
    if not config.is_farfield:
        gap = region_min_distance(config.transmitter, config.receiver)
        estimates["region_gap"] = gap
        if gap <= 0.0:
            violations.append("regions not disjoint")
    else:
        if config.receiver.coverage() <= 0:
            warnings.append("empty far-field coverage: zero shadow, no channel")
    try:
        coarse = compute_shadow(dataclasses.replace(config, n_directions=256, n_theta=24,
                                                    n_phi=48))
        quick = coarse.total if coarse is not None else 0.0
        estimates["shadow_total_coarse"] = quick
        if quick > 0:
            lam = resolve_wavelength(config, quick)
            estimates["wavelength"] = lam
            spacing = lam / config.delta_factor
            # operator rows and columns, not points
            polarized = config.is_farfield and config.receiver.polarized
            n_t = (columns_per_source(config.kernel, polarized)
                   * _count_estimate(config.transmitter, spacing))
            if config.is_farfield:
                ff = config.receiver
                n_r = ff.n_ports if config.dimension == 2 else (
                    ff.n_theta_ports * ff.n_phi_ports * (2 if ff.polarized else 1))
            else:
                n_r = columns_per_source(config.kernel) * _count_estimate(config.receiver, spacing)
            estimates["n_t"] = n_t
            estimates["n_r"] = n_r
            entries = dense_entries(n_r, n_t)
            estimates["dense_bytes"] = entries * 16
            if entries > DENSE_CAP_ENTRIES:
                msg = (f"dense route needs {entries} entries, the {min(n_r, n_t)}^2 Gram "
                       f"matrix and one block (cap {DENSE_CAP_ENTRIES}); "
                       "use the randomized method")
                if config.method == "dense":
                    violations.append(msg)
                else:
                    warnings.append(msg)
        else:
            warnings.append("zero total shadow at coarse quadrature")
    except Exception as exc:  # static checks must not raise
        warnings.append(f"estimation failed: {exc}")
    return {"violations": violations, "warnings": warnings, "estimates": estimates}


def _measure(region: Region) -> float:
    total = 0.0
    for p in region.parts:
        if isinstance(p, Segment):
            total += float(np.linalg.norm(p.end - p.start))
        elif isinstance(p, Disc):
            total += math.pi * p.radius**2
        elif isinstance(p, ConvexPolygon):
            v = p.vertices
            total += 0.5 * abs(float(v[:, 0] @ np.roll(v[:, 1], -1)
                                     - v[:, 1] @ np.roll(v[:, 0], -1)))
        elif isinstance(p, Sphere):
            total += 4.0 / 3.0 * math.pi * p.radius**3
        elif isinstance(p, PlanarPolygon):
            v = p.vertices - p.vertices.mean(axis=0)
            area = 0.0
            for i in range(v.shape[0]):
                area += 0.5 * float(np.linalg.norm(
                    np.cross(v[i], v[(i + 1) % v.shape[0]])))
            total += area
        else:
            total += float(np.sum(p.areas))
    return total


def _count_estimate(region: Region, spacing: float) -> int:
    measure = _measure(region)
    first = region.parts[0]
    if isinstance(first, Segment):
        return int(measure / spacing) + len(region.parts)
    if isinstance(first, Sphere):
        return max(1, int(measure / spacing**3))
    return max(1, int(measure / spacing**2))
