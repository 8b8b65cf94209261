"""Scenario parsing, validation, the run pipeline, and the CLI surface."""

import json
import math
from pathlib import Path

import pytest
import yaml

import shadowdof.scenario as scenario
import shadowdof.spectra as spectra
from shadowdof.cli import main, reproduce
from shadowdof.errors import ScenarioError
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
    t = Region((Disc([0.0, 0.0], 1.0),), "T")
    r = Region((Disc([0.5, 0.0], 1.0),), "R")
    config = ScenarioConfig(name="overlap", transmitter=t, receiver=r, wavelength=0.1)
    report = validate(config)
    assert any("not disjoint" in v for v in report["violations"])


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
    op, _, _ = build_channel(config, 0.5)
    assert est["n_r"] == pytest.approx(op.n_rows, rel=0.05)
    assert est["n_t"] == pytest.approx(op.n_cols, rel=0.05)


def test_auto_picks_dense_by_gram_entries(monkeypatch):
    monkeypatch.setattr(spectra, "_BLOCK_SPAN", 7)
    config = load_scenario(DISC_FARFIELD_YAML)
    op, _, _ = build_channel(config, 0.4)
    entries = dense_entries(*op.shape)
    assert entries < op.n_rows * op.n_cols
    monkeypatch.setattr(scenario, "DENSE_CAP_ENTRIES", entries)
    assert compute_spectrum(config, op, 10.0, method="auto").method == "dense"
    monkeypatch.setattr(scenario, "DENSE_CAP_ENTRIES", entries - 1)
    assert compute_spectrum(config, op, 10.0, method="auto").method.startswith("randomized")


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


def test_run_scenario_empty_coverage():
    t = Region((Disc([0.0, 0.0], 1.0),), "T")
    config = ScenarioConfig(name="empty", transmitter=t,
                            receiver=FarFieldSpec(2, phi_range=(1.0, 1.0)),
                            target_ndof=10.0)
    summary, msr, spec = run_scenario(config)
    assert summary["n_a"] == 0.0
    assert spec is None


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
])
def test_cli_rejects_bad_numbers_at_load(tmp_path, capsys, section, key, value):
    data = yaml.safe_load(TWO_LINES_YAML)
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


def test_cli_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "lines.yaml"
    cfg.write_text(TWO_LINES_YAML)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", str(cfg), "--out", str(out2),
                 "--threads", "8"]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "shadow.csv").read_bytes() == (out2 / "shadow.csv").read_bytes()


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
