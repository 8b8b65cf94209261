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
import logging
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
import yaml

from .channel import (
    ChannelOperator,
    assemble_channel,
    channel_kind,
    ports_from_quadrature,
    sample_region,
)
from .errors import ScenarioError, ShadowDofError
from .geometry import ConvexPolygon, Disc, PlanarPolygon, Segment, Sphere, thread_count
from .quadrature import TWO_PI, circle_quadrature, scene_circle_quadrature, sphere_quadrature
from .shadow import (
    NDOF_MODELS,
    Region,
    ndof_from_shadow,
    total_mutual_shadow,
    total_shadow,
    wavelength_for_ndof,
)
from .spectra import dense_entries, dense_spectrum, plan_spectrum, randomized_spectrum

__all__ = ["FarFieldSpec", "ScenarioConfig", "load_scenario", "validate", "run_scenario",
           "shadow_summary"]

log = logging.getLogger(__name__)

# Criterion 7's tolerance on the relative error of a sketch's top N_a zeta values:
# a run whose bound (``SpectrumResult.zeta_error_bound``) exceeds it warns.
_ZETA_ERROR_WARN = 1e-2


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ScenarioError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_positive(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value > 0)):
        raise ScenarioError(f"{name} must be finite and positive, got {value!r}")


def _models(dimension: int) -> list[str]:
    """The NDoF models of a dimension, its default first."""
    return [m for m, (_, power) in NDOF_MODELS.items() if power == dimension - 1]


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
        # phi is periodic: an arc may start or end past 2 pi, so only finiteness is checked
        if not all(map(math.isfinite, self.phi_range)):
            raise ScenarioError(f"phi_range must be finite, got {self.phi_range}")
        if not all(0.0 <= v <= math.pi for v in self.theta_range):
            raise ScenarioError(f"theta_range must lie in [0, pi], got {self.theta_range}")
        if self.coverage() < 0:
            raise ScenarioError("far-field coverage must be nonnegative")
        if not isinstance(self.polarized, bool) or self.polarized and self.dimension != 3:
            raise ScenarioError("polarized must be true or false, and true only in 3D; "
                                f"got {self.polarized!r} in {self.dimension}D")

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
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))
        for name in ("n_directions", "n_theta", "n_phi"):
            _check_count(name, getattr(self, name), 1)
        _check_count("power_iters", self.power_iters, 0)
        _check_count("seed", self.seed, 0)
        if self.method not in ("dense", "randomized", "auto"):
            raise ScenarioError(f"method must be dense, randomized, or auto, got {self.method!r}")
        models = _models(self.dimension)
        if self.ndof_model is not None and self.ndof_model not in models:
            raise ScenarioError(f"ndof_model must be one of {models} in {self.dimension}D, "
                                f"got {self.ndof_model!r}")
        try:
            channel_kind(self.kernel, self.dimension, self.is_farfield)
        except ValueError as exc:
            raise ScenarioError(f"kernel {self.kernel!r}: {exc}") from exc

    @property
    def dimension(self) -> int:
        return self.transmitter.dimension

    @property
    def model(self) -> str:
        return self.ndof_model or _models(self.dimension)[0]

    @property
    def is_farfield(self) -> bool:
        return isinstance(self.receiver, FarFieldSpec)


# ---------------------------------------------------------------------------
# YAML parsing


# Top-level keys that are ScenarioConfig fields; so is every key of the
# sampling, spectrum and quadrature sections.  A key left out takes the
# field's default.
_SETTINGS = ("wavelength", "target_ndof", "kernel", "ndof_model")

# section -> the keys it may hold; "region" is a transmitter or receiver
# mapping, "receiver" a far-field one, and each shape kind a part of a region;
# the quadrature and far-field sections hold the keys of the scene's dimension
_KEYS = {
    "scenario": ("name", "dimension", "transmitter", "receiver", "sampling", "spectrum",
                 "quadrature", *_SETTINGS),
    "sampling": ("delta_factor",),
    "spectrum": ("method", "p_factor", "power_iters", "seed"),
    "2D quadrature": ("n_directions",),
    "3D quadrature": ("n_theta", "n_phi"),
    "2D far field": ("phi_range", "n_ports", "polarized"),
    "3D far field": ("phi_range", "theta_range", "n_theta_ports", "n_phi_ports", "polarized"),
    "region": ("parts",),
    "receiver": ("farfield",),
    "segment": ("kind", "start", "end"),
    "polygon": ("kind", "vertices"),
    "disc": ("kind", "center", "radius"),
    "sphere": ("kind", "center", "radius"),
    "planar_polygon": ("kind", "vertices", "normal"),
    "plate": ("kind", "origin", "u", "v"),
}
_SHAPE_KINDS = tuple(section for section, keys in _KEYS.items() if "kind" in keys)


def _mapping(value, what: str) -> dict:
    """A config section as a dict; an absent section is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a mapping, got {value!r}")
    return value


def _section(value, section: str, what: str | None = None) -> dict:
    """A mapping holding only the keys that _KEYS gives its section."""
    what = what or section
    value = _mapping(value, what)
    unknown = [key for key in value if key not in _KEYS[section]]
    if unknown:
        raise ScenarioError(f"unknown key(s) {', '.join(map(repr, unknown))} in {what}; "
                            f"known: {', '.join(_KEYS[section])}")
    return value


def _build_shape(spec, label: str):
    kind = _mapping(spec, f"a part of region {label!r}").get("kind")
    if kind not in _SHAPE_KINDS:
        raise ScenarioError(f"unknown shape kind {kind!r} in region {label!r}; "
                            f"known: {', '.join(_SHAPE_KINDS)}")
    spec = _section(spec, kind, f"a {kind} part of region {label!r}")
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
    origin = np.asarray(spec["origin"], dtype=float)  # a plate
    u = np.asarray(spec["u"], dtype=float)
    v = np.asarray(spec["v"], dtype=float)
    verts = np.array([origin, origin + u, origin + u + v, origin + v])
    n = np.cross(u, v)
    return PlanarPolygon(verts, n / np.linalg.norm(n))


def _build_region(spec, label: str) -> Region:
    parts = _section(spec, "region", f"region {label!r}").get("parts")
    if not parts:
        raise ScenarioError(f"region {label!r} needs a parts list")
    try:
        return Region(tuple(_build_shape(p, label) for p in parts), label)
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"invalid region {label!r}: {exc}") from exc


def _build_farfield(spec, dimension: int) -> FarFieldSpec:
    kwargs = dict(_section(spec, f"{dimension}D far field"))
    try:
        for key in ("phi_range", "theta_range"):
            if key in kwargs:
                lo, hi = kwargs[key]
                kwargs[key] = (float(lo), float(hi))
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid far-field range: {exc}") from exc
    return FarFieldSpec(dimension, **kwargs)


def load_scenario(source) -> ScenarioConfig:
    """Build a ScenarioConfig from a YAML path, YAML text, or a dict.

    Every bad value raises one ScenarioError here, before any work runs.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = source
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, TypeError):
            pass
        try:
            # libyaml's parser where PyYAML was built with it; both give equal dicts
            data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    data = _section(data, "scenario")
    if "transmitter" not in data:
        raise ScenarioError("scenario needs a transmitter")
    transmitter = _build_region(data["transmitter"], "T")
    recv_spec = data.get("receiver")
    if not isinstance(recv_spec, dict):
        raise ScenarioError("scenario needs a receiver")
    if "farfield" in recv_spec:
        farfield = _section(recv_spec, "receiver", "a far-field receiver")["farfield"]
        receiver = _build_farfield(farfield, transmitter.dimension)
    else:
        receiver = _build_region(recv_spec, "R")
        if receiver.dimension != transmitter.dimension:
            raise ScenarioError("transmitter and receiver dimensions differ")
    declared_dim = data.get("dimension")
    if declared_dim is not None:
        _check_count("dimension", declared_dim, 2)
        if declared_dim != transmitter.dimension:
            raise ScenarioError("declared dimension does not match the geometry")
    settings = {key: data[key] for key in _SETTINGS if key in data}
    settings.update(_section(data.get("sampling"), "sampling"))
    settings.update(_section(data.get("spectrum"), "spectrum"))
    settings.update(_section(data.get("quadrature"), f"{transmitter.dimension}D quadrature"))
    return ScenarioConfig(name=str(data.get("name", "scenario")), transmitter=transmitter,
                          receiver=receiver, **settings)


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


def build_channel(config: ScenarioConfig, wavelength: float, threads: int = 1) -> ChannelOperator:
    """Sample the regions and assemble the channel operator.

    The operator carries the transmit samples (``tx``) and the receiver
    samples (``rx``) or far-field ports (``ports``).
    """
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
    return assemble_channel(tx, receiver, k, kind=config.kernel, threads=threads)


def compute_spectrum(config: ScenarioConfig, op, plan):
    """The spectrum of ``op`` by the run's ``spectra.SpectrumPlan``."""
    if plan.method == "dense":
        return dense_spectrum(op)
    return randomized_spectrum(op, plan.p, config.seed, config.power_iters)


def shadow_summary(config: ScenarioConfig, msr) -> dict:
    """The analytic estimate: shadow total -> wavelength -> N_a under each model.

    ``n_a`` is the configured model's value; with zero shadow it is 0 and
    the wavelength is None.  Every command's ``summary.json`` starts here.
    """
    total = msr.total if msr is not None else 0.0
    summary = {
        "name": config.name,
        "dimension": config.dimension,
        "model": config.model,
        "shadow_total": total,
        "n_directions": msr.n_directions if msr is not None else 0,
        "seed": config.seed,
        "wavelength": None,
        "n_a": 0.0,
    }
    if total > 0.0:
        wavelength = config.wavelength
        if wavelength is None:
            wavelength = wavelength_for_ndof(total, config.target_ndof, config.model)
        summary["wavelength"] = wavelength
        for model in _models(config.dimension):
            summary[f"n_a_{model}"] = ndof_from_shadow(total, wavelength, model).n_a
        summary["n_a"] = ndof_from_shadow(total, wavelength, config.model).n_a
    return summary


def run_scenario(config: ScenarioConfig, threads: int = 1):
    """Full pipeline; returns (summary, shadow_result, spectrum_result).

    With zero shadow (empty coverage or disjoint shadows everywhere) no
    channel is built and the spectrum is None.  A bad ``threads`` raises
    ValueError before any stage runs, and a spectrum plan above the cap
    raises TooLargeForDenseError right after sampling.  A sketch whose
    ``zeta_error_bound`` exceeds criterion 7's 1e-2 logs a warning (stderr
    without other logging set up), and so does a sketch of fewer than
    round(N_a) values, which has no bound.
    """
    threads = thread_count(threads)
    t0 = time.perf_counter()
    msr = compute_shadow(config)
    timings = {"shadow_s": time.perf_counter() - t0}
    summary = shadow_summary(config, msr)
    summary.update({"n_e": None, "n_k": None, "method": None, "route": None, "n_t": 0,
                    "n_r": 0, "captured_energy": None, "zeta_error_bound": None,
                    "values_below_floor": None, "timings": timings})
    if summary["wavelength"] is None:
        return summary, msr, None
    t1 = time.perf_counter()
    op = build_channel(config, summary["wavelength"], threads=threads)
    timings["assemble_s"] = time.perf_counter() - t1
    plan = plan_spectrum(op.shape, config.method, summary["n_a"], config.p_factor)
    t2 = time.perf_counter()
    spec = compute_spectrum(config, op, plan)
    timings["spectrum_s"] = time.perf_counter() - t2
    timings.update(spec.timings or {})  # a sketch's passes_s, lu_s and qr_s, parts of spectrum_s
    n_top = round(summary["n_a"])
    summary.update({"n_e": spec.n_effective, "n_k": spec.n_knee, "method": spec.method,
                    "route": spec.route, "n_t": op.n_cols, "n_r": op.n_rows,
                    "captured_energy": spec.captured_energy,
                    "zeta_error_bound": spec.zeta_error_bound(n_top),
                    "values_below_floor": spec.values_below_floor})
    if (summary["zeta_error_bound"] or 0.0) > _ZETA_ERROR_WARN:
        log.warning("%s: the sketch captured %.6g of ||H||_F^2, so its top %d zeta values "
                    "may be off by %.3g relative (above %g); raise p_factor or power_iters",
                    config.name, spec.captured_energy, n_top,
                    summary["zeta_error_bound"], _ZETA_ERROR_WARN)
    elif plan.method == "randomized" and plan.p < n_top:
        log.warning("%s: the sketch has %d values, fewer than N_a = %d, so its spectrum "
                    "misses modes and carries no error bound; raise p_factor",
                    config.name, plan.p, n_top)
    return summary, msr, spec


# ---------------------------------------------------------------------------
# Static validation


def validate(config: ScenarioConfig) -> dict:
    """A dry run of the pipeline's own stages up to the spectrum plan.

    The shadow stage runs at a coarse rule (256 directions, 24 x 48); at its
    wavelength ``build_channel`` samples the regions, checks that they are
    a sampling spacing apart and sets up the lazy operator, and
    ``spectra.plan_spectrum`` plans the run's spectrum for its shape.  No kernel is evaluated.  An
    error a stage raises (one the CLI reports as JSON) is a violation naming
    its class, since the run stops there too; a plan refused above the cap
    is reported in ``estimates`` all the same.
    """
    violations: list[str] = []
    warnings: list[str] = []
    estimates: dict = {}
    report = {"violations": violations, "warnings": warnings, "estimates": estimates}
    stage, plan = "shadow", None
    try:
        msr = compute_shadow(dataclasses.replace(config, n_directions=256, n_theta=24, n_phi=48))
        coarse = shadow_summary(config, msr)
        estimates["shadow_total_coarse"] = coarse["shadow_total"]
        if coarse["wavelength"] is None:
            warnings.append("empty far-field coverage: zero shadow, no channel" if msr is None
                            else "zero total shadow at coarse quadrature")
            return report
        estimates["wavelength"] = coarse["wavelength"]
        stage = "channel"
        op = build_channel(config, coarse["wavelength"])
        estimates.update({"n_t": op.n_cols, "n_r": op.n_rows})
        stage = "spectrum"
        # P from the target where one is set: the shadow's N_a rounds away from it,
        # one way at the run's rule and maybe the other at the coarse one
        # (squares_parallel.yaml: 99.99999999999999, P = 300, against
        # 100.00000000000001, P = 301), so the run's P can still be one above
        n_a = config.target_ndof or coarse["n_a"]
        plan = plan_spectrum(op.shape, config.method, n_a, config.p_factor)
    except (ShadowDofError, ValueError) as exc:  # the run stops at this stage too
        violations.append(f"{stage} stage: {type(exc).__name__}: {exc}")
        plan = getattr(exc, "plan", None)  # a refused plan is reported all the same
    if plan is None:
        return report
    dense = dense_entries(*op.shape)
    estimates.update({"dense_bytes": 16 * dense, "method": plan.method, "p": plan.p})
    if plan.method == "randomized":
        estimates["sketch_bytes"] = 16 * plan.entries
        if config.method == "auto":
            warnings.append(f"the dense route needs {dense} entries ({16 * dense} bytes), above "
                            f"the cap, so the run takes the randomized sketch with P = {plan.p}")
    return report
