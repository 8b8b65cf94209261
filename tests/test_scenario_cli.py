"""Scenario parsing, validation, the run pipeline, and the CLI surface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import shadowdof.channel as channel
import shadowdof.cli as cli
import shadowdof.scenario as scenario
import shadowdof.spectra as spectra
from shadowdof.cli import FIGURE_IDS, main, reproduce
from shadowdof.errors import RegionsTooCloseError, ScenarioError, TooLargeForDenseError
from shadowdof.scenario import (
    FarFieldSpec,
    ScenarioConfig,
    build_channel,
    compute_spectrum,
    load_scenario,
    run_scenario,
    validate,
)
from shadowdof.spectra import dense_entries
from shadowdof.geometry import Disc, Segment
from shadowdof.shadow import Region

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TWO_LINES_YAML = """
name: test-lines
dimension: 2
transmitter:
  parts:
    - {kind: segment, start: [-0.5, 0.0], end: [0.5, 0.0]}
receiver:
  parts:
    - {kind: segment, start: [-0.5, 1.0], end: [0.5, 1.0]}
target_ndof: 50
spectrum: {method: dense, seed: 0}
quadrature: {n_directions: 2048}
"""


DISC_FARFIELD_YAML = """
name: test-disc
dimension: 2
transmitter:
  parts:
    - {kind: disc, center: [0.0, 0.0], radius: 1.0}
receiver:
  farfield: {n_ports: 64}
target_ndof: 10
spectrum: {method: dense, seed: 0}
quadrature: {n_directions: 256}
"""


def lines_config(target_ndof=50.0, n_directions=2048):
    t = Region((Segment([-0.5, 0.0], [0.5, 0.0]),), "T")
    r = Region((Segment([-0.5, 1.0], [0.5, 1.0]),), "R")
    return ScenarioConfig(name="lines", transmitter=t, receiver=r,
                          target_ndof=target_ndof, method="dense", seed=0,
                          n_directions=n_directions)


# ---------------------------------------------------------------------------
# Parsing and validation


def test_load_yaml_text_and_files():
    config = load_scenario(TWO_LINES_YAML)
    assert config.name == "test-lines"
    assert config.dimension == 2
    assert config.target_ndof == 50
    for path in SCENARIOS.glob("*.yaml"):
        cfg = load_scenario(path)
        assert cfg.name


def test_exactly_one_of_wavelength_target():
    t = Region((Segment([-0.5, 0.0], [0.5, 0.0]),), "T")
    r = Region((Segment([-0.5, 1.0], [0.5, 1.0]),), "R")
    with pytest.raises(ScenarioError):
        ScenarioConfig(name="x", transmitter=t, receiver=r)
    with pytest.raises(ScenarioError):
        ScenarioConfig(name="x", transmitter=t, receiver=r,
                       wavelength=0.1, target_ndof=10.0)


def test_validate_disjointness():
    # overlapping discs, and lines 0.01 apart (half the lambda/5 spacing): both
    # stop the run in build_channel, and validate reports that stage's error
    discs = (Disc([0.0, 0.0], 1.0), Disc([0.5, 0.0], 1.0))
    lines = (Segment([-0.5, 0.0], [0.5, 0.0]), Segment([-0.5, 0.01], [0.5, 0.01]))
    for t, r in (discs, lines):
        config = ScenarioConfig(name="close", transmitter=Region((t,), "T"),
                                receiver=Region((r,), "R"), wavelength=0.1)
        with pytest.raises(RegionsTooCloseError):
            build_channel(config, 0.1)
        report = validate(config)
        [violation] = report["violations"]
        assert violation.startswith("channel stage: RegionsTooCloseError: ")
        assert "n_t" not in report["estimates"]


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_validate_counts_are_the_operators(path):
    config = load_scenario(path)
    report = validate(config)
    assert report["violations"] == []
    est = report["estimates"]
    op = build_channel(config, est["wavelength"])
    assert (est["n_r"], est["n_t"]) == op.shape
    assert est["dense_bytes"] == 16 * dense_entries(*op.shape)
    # the plan is the run's: its method, and P where it sketches
    summary, _, _ = run_scenario(config)
    if est["method"] == "dense":
        assert summary["method"] == "dense"
        assert est["p"] is None and "sketch_bytes" not in est
    else:
        assert summary["method"] == f"randomized(P={est['p']}, power_iters={config.power_iters})"
        assert est["sketch_bytes"] > 0
    assert est["p"] == {"squares_parallel": 300}.get(path.stem)


def test_validate_counts_every_part_of_a_region():
    # a segment and a disc: the samples of both parts, not an estimate keyed on the first
    data = {"name": "segment-and-disc", "target_ndof": 10,
            "transmitter": {"parts": [
                {"kind": "segment", "start": [-0.5, 0.0], "end": [0.5, 0.0]},
                {"kind": "disc", "center": [0.0, -1.0], "radius": 0.5}]},
            "receiver": {"parts": [{"kind": "segment", "start": [-0.5, 1.0], "end": [0.5, 1.0]}]}}
    est = validate(load_scenario(data))["estimates"]
    assert est["n_t"] == 2914
    assert est["n_r"] == 61


def test_validate_clean_config_and_estimates():
    report = validate(lines_config())
    assert report["violations"] == []
    assert report["estimates"]["n_t"] > 0
    assert "wavelength" in report["estimates"]


def test_validate_dense_above_cap_warns():
    config = lines_config(target_ndof=50.0)
    import dataclasses

    big = dataclasses.replace(config, method="auto", target_ndof=20000.0)
    report = validate(big)
    assert any("randomized" in w for w in report["warnings"])
    big_dense = dataclasses.replace(config, method="dense", target_ndof=20000.0)
    report = validate(big_dense)
    assert any("randomized" in v for v in report["violations"])


def test_validate_counts_dense_route_memory():
    report = validate(lines_config())
    est = report["estimates"]
    assert est["dense_bytes"] == 16 * dense_entries(est["n_r"], est["n_t"])


@pytest.mark.parametrize("receiver, kernel", [
    ({"parts": [{"kind": "sphere", "center": [0, 0, 3.0], "radius": 0.5}]}, "dyadic3d"),
    ({"farfield": {"n_theta_ports": 8, "n_phi_ports": 16, "polarized": True}}, None),
], ids=["dyadic", "polarized"])
def test_validate_estimates_operator_shape(receiver, kernel):
    data = {"name": "ball", "dimension": 3, "wavelength": 0.5, "kernel": kernel,
            "transmitter": {"parts": [{"kind": "sphere", "center": [0, 0, 0], "radius": 0.5}]},
            "receiver": receiver, "quadrature": {"n_theta": 24, "n_phi": 48}}
    config = load_scenario(data)
    est = validate(config)["estimates"]
    op = build_channel(config, 0.5)
    assert (est["n_r"], est["n_t"]) == op.shape


def test_auto_picks_dense_by_gram_entries(monkeypatch):
    monkeypatch.setattr(spectra, "_BLOCK_SPAN", 7)
    config = dataclasses.replace(load_scenario(DISC_FARFIELD_YAML), method="auto")
    op = build_channel(config, 0.4)
    entries = dense_entries(*op.shape)
    assert entries < op.n_rows * op.n_cols
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", entries)
    plan = spectra.plan_spectrum(op.shape, config.method, 10.0, config.p_factor)
    assert compute_spectrum(config, op, plan).method == "dense"
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", entries - 1)
    # the sketch's own plan must fit below this cap too: P = ceil(0.6 * 10) = 6
    # holds 484 * 6 + 6**2 + 6 * 7 entries, where P = 30 would hold 15,630
    config = dataclasses.replace(config, p_factor=0.6)
    plan = spectra.plan_spectrum(op.shape, config.method, 10.0, config.p_factor)
    assert compute_spectrum(config, op, plan).method.startswith("randomized")


def _squares_at(tmp_path, target_ndof):
    """squares_parallel.yaml at another target_ndof, as a file."""
    data = yaml.safe_load((SCENARIOS / "squares_parallel.yaml").read_text())
    path = tmp_path / f"squares_na{target_ndof}.yaml"
    path.write_text(yaml.safe_dump({**data, "target_ndof": target_ndof}))
    return path


def test_validate_refuses_the_12_gb_sketch(tmp_path):
    # N_a = 2500: 100,489 samples a side and P = 7500, a 12 GB buffer on its own
    report = validate(load_scenario(_squares_at(tmp_path, 2500)))
    [violation] = report["violations"]
    assert violation.startswith("spectrum stage: TooLargeForDenseError: the randomized sketch")
    est = report["estimates"]
    assert (est["method"], est["p"]) == ("randomized", 7500)
    n = max(est["n_t"], est["n_r"])
    assert est["sketch_bytes"] == 16 * (n * 7500 + dense_entries(est["n_t"], 7500))
    assert f"{est['sketch_bytes']} bytes" in violation
    assert report["warnings"] == []


def test_spectrum_refuses_the_12_gb_sketch_before_allocating(tmp_path):
    # under a 3 GB address-space limit an allocation of the buffer would end in a
    # MemoryError rather than in the refusal.  The child reports its own peak,
    # VmHWM: ru_maxrss keeps the forked test process's peak across exec.
    script = f"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
sys.path.insert(0, {str(SCENARIOS.parent / "src")!r})
from shadowdof import cli
rc = cli.main(["spectrum", "--config", {str(_squares_at(tmp_path, 2500))!r},
               "--out", {str(tmp_path / "out")!r}])
with open("/proc/self/status") as fh:
    [peak_kb] = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
print(json.dumps({{"rc": rc, "maxrss_mb": int(peak_kb) / 1024}}))
"""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env=env)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 1
    [line] = done.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "TooLargeForDenseError"
    assert "bytes" in err["message"] and "P = 7500" in err["message"]
    assert result["maxrss_mb"] < 200
    assert not (tmp_path / "out").exists()


def test_oversized_sampling_box_is_refused_before_allocating(tmp_path):
    # N_a = 1e8: a 63,113 x 63,113 grid box per plate, 351 GB at the sampler's
    # 88 bytes a point; under a 2 GB address-space limit its allocation would end
    # in a MemoryError rather than in the refusal.
    path = _squares_at(tmp_path, 100_000_000)
    script = f"""
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))
sys.path.insert(0, {str(SCENARIOS.parent / "src")!r})
from shadowdof import cli
with contextlib.redirect_stdout(io.StringIO()) as report:
    validated = cli.main(["validate", "--config", {str(path)!r}])
rc = cli.main(["spectrum", "--config", {str(path)!r}, "--out", {str(tmp_path / "out")!r}])
print(json.dumps({{"rc": rc, "validated": validated, "report": json.loads(report.getvalue())}}))
"""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env=env)
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["validated"], result["rc"]) == (0, 1)
    [line] = done.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "TooLargeForDenseError"
    assert err["message"].startswith("sampling a ")
    [violation] = result["report"]["violations"]
    assert violation.startswith("channel stage: TooLargeForDenseError: sampling a ")
    assert not (tmp_path / "out").exists()


def test_run_plans_its_spectrum_once(monkeypatch):
    plans = []
    plan_spectrum = scenario.plan_spectrum
    monkeypatch.setattr(scenario, "plan_spectrum",
                        lambda *args: plans.append(args) or plan_spectrum(*args))
    summary, _, spec = run_scenario(lines_config(target_ndof=10.0))
    assert len(plans) == 1
    assert summary["method"] == spec.method == "dense"


def test_refused_sketch_never_enters_the_sketch(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused plan reached the spectrum")

    monkeypatch.setattr(scenario, "randomized_spectrum", refuse)
    monkeypatch.setattr(channel.ChannelOperator, "apply", refuse)
    path = _squares_at(tmp_path, 10)
    config = load_scenario(path)
    est = validate(config)["estimates"]
    # below the 30-column buffer alone
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", 30 * max(est["n_t"], est["n_r"]))
    with pytest.raises(TooLargeForDenseError, match="P = 30") as info:
        run_scenario(config)
    assert (info.value.plan.method, info.value.plan.p) == ("randomized", 30)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "TooLargeForDenseError"
    assert not out.exists()


def test_validate_warnings_follow_the_plan(monkeypatch):
    config = lines_config()
    est = validate(config)["estimates"]
    n_r, n_t = est["n_r"], est["n_t"]
    p = 150  # ceil(3 * 50)
    sketch = max(n_r, n_t) * p + dense_entries(n_t, p)
    assert sketch < dense_entries(n_r, n_t)
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", sketch)
    report = validate(dataclasses.replace(config, method="randomized"))
    assert report["violations"] == report["warnings"] == []
    assert report["estimates"]["sketch_bytes"] == 16 * sketch
    report = validate(dataclasses.replace(config, method="auto"))
    assert report["violations"] == []
    [warning] = report["warnings"]
    assert f"randomized sketch with P = {p}" in warning
    report = validate(config)  # method: dense
    [violation] = report["violations"]
    assert violation.startswith("spectrum stage: TooLargeForDenseError: the dense route")
    assert "randomized" in violation
    assert report["estimates"]["method"] == "dense"


def test_validate_empty_coverage_warns_once():
    t = Region((Disc([0.0, 0.0], 1.0),), "T")
    config = ScenarioConfig(name="empty", transmitter=t,
                            receiver=FarFieldSpec(2, phi_range=(1.0, 1.0)), target_ndof=10.0)
    report = validate(config)
    assert report["warnings"] == ["empty far-field coverage: zero shadow, no channel"]
    assert report["violations"] == []
    assert report["estimates"] == {"shadow_total_coarse": 0.0}


def test_method_overrides_are_checked_by_the_config():
    with pytest.raises(ScenarioError, match="method"):
        dataclasses.replace(lines_config(), method="bogus")


# ---------------------------------------------------------------------------
# Pipeline


def test_run_scenario_two_lines_summary():
    summary, msr, spec = run_scenario(lines_config())
    expected_l = 2.0 * (math.sqrt(2.0) - 1.0)
    assert summary["shadow_total"] == pytest.approx(expected_l, rel=1e-9)
    assert summary["wavelength"] == pytest.approx(expected_l / 50.0, rel=1e-9)
    assert summary["n_a"] == pytest.approx(50.0, rel=1e-12)
    assert 30 < summary["n_e"] < 70
    assert spec is not None


def test_run_scenario_circle_farfield():
    t = Region((Disc([0.0, 0.0], 1.0),), "T")
    config = ScenarioConfig(name="cyl", transmitter=t,
                            receiver=FarFieldSpec(2, n_ports=256),
                            target_ndof=100.0, method="dense", seed=0,
                            n_directions=512)
    summary, msr, spec = run_scenario(config)
    assert summary["shadow_total"] == pytest.approx(4 * math.pi, rel=1e-12)
    # a / lambda = N_a / (4 pi)
    a_over_lambda = 1.0 / summary["wavelength"]
    assert a_over_lambda == pytest.approx(100.0 / (4 * math.pi), rel=1e-12)
    assert summary["route"] == "lattice"  # disc sources: the port Gram in closed form


def test_run_scenario_empty_coverage():
    t = Region((Disc([0.0, 0.0], 1.0),), "T")
    config = ScenarioConfig(name="empty", transmitter=t,
                            receiver=FarFieldSpec(2, phi_range=(1.0, 1.0)),
                            target_ndof=10.0)
    summary, msr, spec = run_scenario(config)
    assert summary["n_a"] == 0.0
    assert spec is None


@pytest.mark.parametrize("threads", [2.5, 0, True])
def test_run_scenario_checks_threads_before_any_stage(monkeypatch, threads):
    def refuse(config):
        raise AssertionError("the shadow stage ran before threads was checked")

    monkeypatch.setattr(scenario, "compute_shadow", refuse)
    with pytest.raises(ValueError, match="threads"):
        run_scenario(lines_config(), threads=threads)


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_spectrum_and_outputs(tmp_path):
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "shadow.csv").exists()
    assert (out / "spectrum.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_a"] == pytest.approx(50.0, rel=1e-9)
    # the three NDoF figures are always present and positive once a channel ran
    for key in ("n_a", "n_e", "n_k"):
        assert math.isfinite(summary[key]) and summary[key] > 0
    header = (out / "spectrum.csv").read_text().splitlines()[0]
    assert header == "n,sigma,zeta,zeta_times_na"
    shadow_lines = (out / "shadow.csv").read_text().splitlines()
    assert shadow_lines[0].startswith("# total = ")
    assert shadow_lines[1] == "phi,weight,shadow"


def test_cli_shadow_and_ndof(tmp_path):
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    rc = main(["shadow", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 0
    rc = main(["ndof", "--config", str(cfg), "--out", str(tmp_path / "n")])
    assert rc == 0
    summary = json.loads((tmp_path / "n" / "summary.json").read_text())
    assert summary["n_a"] == pytest.approx(50.0, rel=1e-9)


def test_cli_calls_in_one_process_parse_independently(tmp_path):
    # the parser is built once per process; each call still starts from its defaults
    assert cli._build_parser() is cli._build_parser()
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    assert main(["shadow", "--config", str(cfg), "--out", str(tmp_path / "s"), "--seed", "5",
                 "--format", "json"]) == 0
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    first = json.loads((tmp_path / "s" / "summary.json").read_text())
    second = json.loads((tmp_path / "p" / "summary.json").read_text())
    assert first["seed"] == 5
    assert second["seed"] == 0 and second["method"] == "dense"
    assert (tmp_path / "p" / "shadow.csv").exists() and not (tmp_path / "p" / "shadow.json").exists()


def test_cli_capacity(tmp_path):
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    out = tmp_path / "cap"
    rc = main(["capacity", "--config", str(cfg), "--out", str(out),
               "--gammas", "0.5,1,10", "--modes"])
    assert rc == 0
    lines = (out / "capacity.csv").read_text().splitlines()
    assert lines[0] == "gamma,capacity_bits,active_modes"
    assert len(lines) == 4
    caps = [float(l.split(",")[1]) for l in lines[1:]]
    assert caps[0] < caps[1] < caps[2]
    assert (out / "modes.csv").exists()


def test_cli_validate_and_errors(tmp_path, capsys):
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    rc = main(["validate", "--config", str(cfg)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    rc = main(["spectrum", "--config", str(tmp_path / "missing.yaml"), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


@pytest.mark.parametrize("section, key, value", [
    ("quadrature", "n_directions", 0),
    ("quadrature", "n_theta", 0),
    ("spectrum", "p_factor", -1),
    ("spectrum", "power_iters", -2),
    ("sampling", "delta_factor", float("nan")),
    ("quadrature", "n_directions", 40.7),
    ("quadrature", "n_theta", 1.9),
    ("quadrature", "n_phi", 2.5),
    ("spectrum", "power_iters", 1.5),
    ("spectrum", "seed", 3.5),
    ("spectrum", "seed", -1),
    (None, "wavelength", "abc"),
    (None, "target_ndof", [1]),
    (None, "sampling", [1]),
    (None, "dimension", 2.5),
    (None, "dimension", "abc"),
    ("spectrum", "p_factor", "abc"),
    (None, "kernel", "unknown"),
    (None, "kernel", "scalar3d"),
    (None, "ndof_model", "unknown"),
    (None, "ndof_model", "em3d"),
    ("farfield", "phi_range", [0.0, float("nan")]),
    ("farfield", "phi_range", [0.0, float("inf")]),
    ("farfield", "theta_range", [-0.1, 1.0]),
    ("farfield", "theta_range", [0.0, 3.5]),
    ("farfield", "polarized", "false"),
    ("farfield", "polarized", True),
    ("spectrum", "seed", None),
    ("spectrum", "methd", "dense"),
    ("sampling", "delta", 5.0),
    ("quadrature", "n_thetas", 24),
    ("farfield", "n_port", 64),
    ("transmitter", "colour", "red"),
    (None, "wavelenght", 0.1),
    # a key of the other dimension's rule or coverage, as are the 2D scene's n_theta,
    # n_phi and theta_range above
    ("quadrature", "n_theta", 24),
    ("quadrature", "n_phi", 48),
    ("quadrature3d", "n_directions", 4096),
    ("farfield", "theta_range", [0.0, 1.0]),
    ("farfield", "n_theta_ports", 8),
    ("farfield", "n_phi_ports", 16),
    ("farfield3d", "n_ports", 64),
    # bad values of the 3D keys, in a 3D scene
    ("quadrature3d", "n_theta", 0),
    ("quadrature3d", "n_theta", 1.9),
    ("quadrature3d", "n_phi", 2.5),
    ("farfield3d", "theta_range", [-0.1, 1.0]),
    ("farfield3d", "theta_range", [0.0, 3.5]),
])
def test_cli_rejects_bad_numbers_at_load(tmp_path, capsys, section, key, value):
    data = yaml.safe_load(TWO_LINES_YAML)
    if section in ("quadrature3d", "farfield3d"):  # the same section of a 3D scene
        data = yaml.safe_load((SCENARIOS / "squares_parallel.yaml").read_text())
        section = section[:-2]
    if section is None:  # a top-level value
        if key == "wavelength":
            del data["target_ndof"]
        data[key] = value
    elif section == "farfield":  # a far-field receiver in place of the second line
        data["receiver"] = {"farfield": {key: value}}
    else:
        data.setdefault(section, {})[key] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(data))
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ScenarioError" and key in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("yaml_text, part, key", [
    (DISC_FARFIELD_YAML, {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0, "raduis": 5},
     "raduis"),
    ((SCENARIOS / "squares_parallel.yaml").read_text(),
     {"kind": "plate", "origin": [0, 0, 0], "u": [1, 0, 0], "v": [0, 1, 0],
      "normal": [0, 1, 0]}, "normal"),
], ids=["disc-raduis", "plate-normal"])
def test_cli_rejects_unknown_part_keys_at_load(tmp_path, capsys, yaml_text, part, key):
    data = yaml.safe_load(yaml_text)
    data["transmitter"]["parts"][0] = part
    with pytest.raises(ScenarioError, match=key):
        load_scenario(data)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(data))
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ScenarioError" and key in err["message"]
    assert part["kind"] in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [0, -3, 40.7])
def test_cli_rejects_bad_port_counts_at_load(tmp_path, capsys, value):
    data = yaml.safe_load(DISC_FARFIELD_YAML)
    data["receiver"]["farfield"]["n_ports"] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(data))
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ScenarioError" and "n_ports" in err["message"]
    assert not (tmp_path / "out").exists()


LOADERS = [name for name in ("CSafeLoader", "SafeLoader") if hasattr(yaml, name)]


def _use_loader(monkeypatch, name: str) -> list:
    """Make load_scenario use the named loader (SafeLoader: as if PyYAML had no libyaml);
    returns the list of loaders that yaml.load is then called with."""
    if name == "SafeLoader":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    used, load = [], yaml.load
    monkeypatch.setattr(yaml, "load", lambda text, Loader: used.append(Loader) or load(text, Loader))
    return used


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", [
    "name: bad\ntransmitter: {parts: [\n",
    "name: bad\ntransmitter:\n\tparts: []\n",
], ids=["unclosed bracket", "tab-indented line"])
def test_cli_rejects_malformed_yaml_at_load(tmp_path, capsys, monkeypatch, loader, text):
    used = _use_loader(monkeypatch, loader)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    rc = main(["shadow", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert used == [getattr(yaml, loader)]
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ScenarioError" and "YAML" in err["message"]
    assert not (tmp_path / "out").exists()


def test_yaml_loaders_give_equal_configs():
    texts = [p.read_text(encoding="utf-8") for p in sorted(SCENARIOS.glob("*.yaml"))]
    for text in texts + [TWO_LINES_YAML, DISC_FARFIELD_YAML]:
        configs = []
        for name in LOADERS:
            with pytest.MonkeyPatch.context() as monkeypatch:
                used = _use_loader(monkeypatch, name)
                configs.append(dataclasses.astuple(load_scenario(text)))
                assert used == [getattr(yaml, name)]
                assert yaml.load(text, Loader=used[0]) == yaml.safe_load(text)
        assert all(repr(c) == repr(configs[0]) for c in configs)


@pytest.mark.parametrize("command", ["shadow", "ndof", "spectrum", "capacity", "reproduce"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_threads_below_one(tmp_path, capsys, command, threads):
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    target = ["fig_spheres_paraxial"] if command == "reproduce" else ["--config", str(cfg)]
    rc = main([command, *target, "--out", str(tmp_path / "out"), "--threads", threads])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError" and "--threads" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["capacity", "--rho", "0"],
    ["capacity", "--rho", "-1"],
    ["capacity", "--rho", "nan"],
    ["capacity", "--gammas", "0.5,0"],
    ["capacity", "--gammas", "1,inf"],
    ["reproduce", "fig_lines_sweep", "--na", "5.2,5.7"],
    ["reproduce", "fig_ideal_squares", "--na", "0"],
    ["reproduce", "fig_spheres_paraxial", "--na", "5.2,5.7"],
], ids=lambda argv: " ".join(argv))
def test_cli_rejects_bad_arguments_before_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a bad argument reached the pipeline")

    for name in ("compute_shadow", "run_scenario"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    target = [] if argv[0] == "reproduce" else ["--config", str(cfg)]
    rc = main([*argv, *target, "--out", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["shadow", "ndof"])
def test_cli_method_only_for_channel_commands(tmp_path, command):
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
              "--method", "randomized"])
    assert exc.value.code != 0
    assert not (tmp_path / "out").exists()


def test_cli_summaries_carry_the_shadow_stage(tmp_path):
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    library, _, _ = run_scenario(load_scenario(TWO_LINES_YAML))
    summaries = {}
    for command in ("shadow", "ndof", "spectrum", "capacity"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        summaries[command] = json.loads((tmp_path / command / "summary.json").read_text())
    for command, summary in summaries.items():
        for key in ("name", "dimension", "shadow_total", "wavelength", "n_a", "n_a_scalar2d",
                    "model", "seed", "n_directions"):
            assert summary[key] == library[key], (command, key)
    for key in ("n_e", "n_k", "method", "route", "n_t", "n_r"):
        assert summaries["capacity"][key] == summaries["spectrum"][key] == library[key]
    assert library["route"] == "rows"  # a dense spectrum of point receivers reads row blocks
    sketched, _, _ = run_scenario(
        dataclasses.replace(load_scenario(TWO_LINES_YAML), method="randomized"))
    assert sketched["route"] == "lattice"
    assert library["captured_energy"] is None  # dense: nothing was sketched
    assert 0.0 < sketched["captured_energy"] < 1.0 + 1e-12
    assert library["zeta_error_bound"] is None
    assert sketched["zeta_error_bound"] >= 0.0
    sigma = np.loadtxt(tmp_path / "spectrum" / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
    below = int(np.count_nonzero(sigma < 1e-13 * sigma[0]))
    for command in ("spectrum", "capacity"):
        assert summaries[command]["values_below_floor"] == library["values_below_floor"] == below
    assert set(library["timings"]) == {"shadow_s", "assemble_s", "spectrum_s"}
    layers = sketched["timings"]  # a sketch adds the parts of spectrum_s it can name
    assert set(layers) == {"shadow_s", "assemble_s", "spectrum_s", "passes_s", "lu_s", "qr_s"}
    assert 0.0 < layers["passes_s"] + layers["lu_s"] + layers["qr_s"] < layers["spectrum_s"]
    for command in ("shadow", "ndof", "spectrum", "capacity"):  # the CLI adds its writing time
        timings = summaries[command]["timings"]
        stages = {"shadow_s"} if command in ("shadow", "ndof") else set(library["timings"])
        assert set(timings) == {*stages, "write_s"}
        assert 0.0 <= timings["write_s"] < 60.0
    assert summaries["capacity"]["rho"] == 1.0
    assert summaries["capacity"]["gammas"] == [0.5, 1.0, 10.0]


def test_sketch_zeta_error_bound_matches_the_benchmark_oracle(monkeypatch):
    # the bundled squares pair at N_a = 100, sketched on the lattice route; the
    # oracle gets its own ||H||_F^2, summed pair by pair over the plates' grids
    monkeypatch.syspath_prepend(str(SCENARIOS.parent / "perfbench"))
    import bench_oracles as oracles

    summary, _, spec = run_scenario(load_scenario(SCENARIOS / "squares_parallel.yaml"))
    assert summary["route"] == "lattice"
    spacing = summary["wavelength"] / 5.0
    tx = oracles.plate_samples([0, 0, 0], [1, 0, 0], [0, 1, 0], spacing)
    rx = oracles.plate_samples([0, 0, 1], [1, 0, 0], [0, 1, 0], spacing)
    e, bound = oracles.zeta_error_bound(spec.sigma, oracles.frobenius_sq_scalar3d(tx, rx),
                                        round(summary["n_a"]))
    # e = 1 - sum(sigma) / ||H||_F^2 is about 7e-10, a difference of numbers near
    # 1, so either side's e carries about u / e = 1.5e-7 relative rounding
    assert 0.0 < e < 1e-8
    assert summary["zeta_error_bound"] == pytest.approx(bound, rel=1e-6, abs=0)


@pytest.mark.parametrize("p_factor,warns", [(0.5, True), (1.02, True), (3.0, False)])
def test_sketch_with_too_few_columns_warns(p_factor, warns, caplog):
    # N_a = 50 at P = 51 and no power step captures 0.968 of ||H||_F^2: the bound
    # on the top 50 zeta values reads 3.96, above criterion 7's 1e-2; at P = 150
    # it reads 1.5e-14.  At P = 25 (captured 0.492) there is no 50th value, so
    # no bound, and the sketch warns for its size
    config = dataclasses.replace(load_scenario(TWO_LINES_YAML), method="randomized",
                                 p_factor=p_factor, power_iters=0)
    with caplog.at_level("WARNING", logger="shadowdof.scenario"):
        summary, _, spec = run_scenario(config)
    bound = summary["zeta_error_bound"]
    assert (bound is None) is (spec.sigma.shape[0] < 50)
    assert (bound is None or bound > 1e-2) is warns
    records = [r for r in caplog.records if r.name == "shadowdof.scenario"]
    assert len(records) == int(warns)
    if warns:
        assert records[0].levelname == "WARNING"
        assert "test-lines" in records[0].getMessage()
        assert "p_factor" in records[0].getMessage()


def test_cli_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", str(cfg), "--out", str(out2),
                 "--threads", "8"]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "shadow.csv").read_bytes() == (out2 / "shadow.csv").read_bytes()


def test_cylinder_lattice_gram_byte_identical(tmp_path):
    # the bundled far-field disc takes the closed-form port Gram; its spectrum
    # must not depend on --threads or on the run
    cfg = str(SCENARIOS / "cylinder_full.yaml")
    runs = [("a", "1"), ("b", "2"), ("c", "1")]
    for name, threads in runs:
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / name),
                     "--threads", threads]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert (summary["route"], summary["n_r"], summary["n_t"]) == ("lattice", 512, 4968)
    first, *others = [(tmp_path / name / "spectrum.csv").read_bytes() for name, _ in runs]
    assert all(other == first for other in others)


def test_reproduce_small_figures(tmp_path):
    files = reproduce("fig_spheres_paraxial", tmp_path)
    assert len(files) == 3
    text = files[0].read_text().splitlines()
    assert text[0] == "h_over_sum_radii,area_over_paraxial"
    # ratio approaches 1 at large separations
    last = float(text[-1].split(",")[1])
    assert abs(last - 1.0) < 5e-3
    files = reproduce("fig_lines_sweep", tmp_path, na_list=[5])
    assert len(files) == 4
    with pytest.raises(Exception):
        reproduce("fig_unknown", tmp_path)


_ZETA_HEADER = "n_over_na,zeta_times_na"
_FIGURE_FILES = {
    "fig_ideal_squares": {"ideal_channel.csv": _ZETA_HEADER, "squares_na5.csv": _ZETA_HEADER},
    "fig_waterfill": {"inverse_na5.csv": "n_over_na,inverse_zeta_na"},
    "fig_cyl_coverage": {"cyl_full_na5.csv": _ZETA_HEADER, "cyl_quarter_na5.csv": _ZETA_HEADER},
    "fig_lines_sweep": {f"lines_na5_d{d}.csv": _ZETA_HEADER for d in ("0.1", "0.5", "1.0", "5.0")},
    "fig_geos_2d": {f"{label}.csv": "d_over_l,shadow_over_l" for label in (
        "parallel", "rotated_20deg", "rotated_40deg", "rectangles")},
    "fig_shadow_r2r": {f"{label}.csv": "d_over_l,area_over_l2"
                       for label in ("parallel", "shifted", "rotated")},
    "fig_spectra_r2r": {f"squares_na5_d{d}.csv": _ZETA_HEADER for d in ("0.5", "1.0", "2.0")},
    "fig_spheres_paraxial": {f"ratio_{r}.csv": "h_over_sum_radii,area_over_paraxial"
                             for r in ("1.0", "0.5", "0.25")},
}


def test_reproduce_every_figure_of_the_table(tmp_path):
    assert set(FIGURE_IDS) == set(_FIGURE_FILES)
    for figure_id, expected in _FIGURE_FILES.items():
        na_list = [5] if cli.FIGURES[figure_id][0] else None
        if na_list is None:
            with pytest.raises(ValueError, match="no N_a"):
                reproduce(figure_id, tmp_path, na_list=[5])
        files = reproduce(figure_id, tmp_path, na_list=na_list)
        assert [f.name for f in files] == list(expected), figure_id
        assert sorted(p.name for p in (tmp_path / figure_id).iterdir()) == sorted(expected)
        for f in files:
            lines = f.read_text().splitlines()
            assert lines[0] == expected[f.name] and len(lines) > 1, f


def test_reproduce_geos_2d(tmp_path):
    files = reproduce("fig_geos_2d", tmp_path)
    names = {f.name for f in files}
    assert {"parallel.csv", "rotated_20deg.csv", "rotated_40deg.csv",
            "rectangles.csv"} <= names
    # parallel curve: shadow decreases with distance and starts near 2*min(l)=1
    rows = [list(map(float, l.split(","))) for l in
            (tmp_path / "fig_geos_2d" / "parallel.csv").read_text().splitlines()[1:]]
    vals = [r[1] for r in rows]
    assert vals[0] == pytest.approx(1.0, rel=0.02)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_reproduce_remaining_figures_complete(tmp_path):
    # desk-scale completion check for the figure families not covered above
    for fig, kw in (("fig_ideal_squares", {"na_list": [10]}),
                    ("fig_waterfill", {"na_list": [10]}),
                    ("fig_cyl_coverage", {"na_list": [30]}),
                    ("fig_spectra_r2r", {"na_list": [10]}),
                    ("fig_shadow_r2r", {})):
        files = reproduce(fig, tmp_path, **kw)
        assert files and all(f.exists() for f in files)
    # parallel-squares shadow curve climbs toward pi * l^2 as d -> 0 (83% by d = 0.1 l)
    rows = [list(map(float, l.split(","))) for l in
            (tmp_path / "fig_shadow_r2r" / "parallel.csv").read_text().splitlines()[1:]]
    vals = [r[1] for r in rows]
    assert 0.8 * math.pi < vals[0] < math.pi
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02  # paraxial falloff at d = 10 l


def test_em3d_model_doubles_na():
    import dataclasses

    t = Region((Disc([0.0, 0.0], 1.0),), "T")
    base = dict(name="em", transmitter=t,
                receiver=FarFieldSpec(2, n_ports=64), wavelength=0.5)
    scalar = ScenarioConfig(**base)
    summary_s, _, _ = run_scenario(dataclasses.replace(scalar, name="s"))
    # em3d is a 3D model; check the doubling on the estimate itself
    from shadowdof.shadow import ndof_from_shadow

    est_scalar = ndof_from_shadow(2.0, 0.1, "scalar3d")
    est_em = ndof_from_shadow(2.0, 0.1, "em3d")
    assert est_em.n_a == 2 * est_scalar.n_a
    assert summary_s["n_a"] > 0


def test_bench_tracer_patches_names_that_exist(monkeypatch):
    # the benchmark's tracer wraps program names by attribute; a renamed or
    # deleted one must fail here, not first in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from bench_trace import Tracer

    tracer = Tracer()
    try:
        tracer.install(cli)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
