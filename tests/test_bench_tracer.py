"""The benchmark's layer tracer still finds every name it patches in the program."""

import sys
from pathlib import Path

import shadowdof.cli as cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import bench_trace  # noqa: E402


def test_tracer_installs_runs_and_restores(tmp_path):
    tracer = bench_trace.Tracer()
    tracer.install(cli)
    patches = list(tracer._patches)
    try:
        assert patches
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
        for name in ("two_lines", "cylinder_full"):
            assert cli.main(["spectrum", "--config", str(ROOT / "scenarios" / f"{name}.yaml"),
                             "--out", str(tmp_path / name)]) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)
    assert tracer.calls["cli.main"] == 2
    assert tracer.calls["spectra.dense_spectrum"] == 2
