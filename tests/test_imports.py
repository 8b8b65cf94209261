"""Which scipy submodules each command loads, each case in a fresh interpreter.

The package refers to scipy by qualified name after a bare ``import scipy``,
and scipy loads a submodule the first time one of its attributes is read.
So the analytic commands and ``validate`` never pay for scipy's linear
algebra, FFT, spatial or special-function modules.  A far-field dense
spectrum and a lattice-route spectrum of two parallel plates load only
``scipy.linalg``: the lattice route runs numpy.fft and numpy distances, and
the spacing check of plates a distance apart needs no k-d tree.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SUBMODULES = ("scipy.linalg", "scipy.fft", "scipy.spatial", "scipy.special")

# Transmitter of two parallel segments, so it carries no lattice and the channel
# takes the rows route; 605 receiver points make two row spans for the pool.
TWO_PART_YAML = """
name: two-part-lines
dimension: 2
transmitter:
  parts:
    - {kind: segment, start: [-0.5, 0.0], end: [0.5, 0.0]}
    - {kind: segment, start: [-0.5, -0.3], end: [0.5, -0.3]}
receiver:
  parts:
    - {kind: segment, start: [-0.5, 1.0], end: [0.5, 1.0]}
target_ndof: 100
spectrum: {method: randomized, p_factor: 1.5, seed: 0}
quadrature: {n_directions: 1024}
"""


def _run(script: str) -> str:
    """stdout of a fresh interpreter running script with the package's source on sys.path."""
    prelude = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_after(argv: list[str]) -> set[str]:
    """The SUBMODULES in sys.modules after cli.main(argv) in a fresh interpreter."""
    out = _run(f"""
import json
import shadowdof
from shadowdof import cli
assert cli.main({argv!r}) == 0
print(json.dumps([m for m in {SUBMODULES!r} if m in sys.modules]))
""")
    return set(json.loads(out.splitlines()[-1]))


def test_shadow_and_ndof_load_no_scipy_submodule(tmp_path):
    config = str(SCENARIOS / "squares_parallel.yaml")  # a pair of square plates
    for command in ("shadow", "ndof"):
        argv = [command, "--config", config, "--out", str(tmp_path / command)]
        assert _loaded_after(argv) == set(), command


def test_farfield_dense_spectrum_loads_only_linalg(tmp_path):
    argv = ["spectrum", "--config", str(SCENARIOS / "cylinder_full.yaml"),
            "--out", str(tmp_path / "out")]
    assert _loaded_after(argv) == {"scipy.linalg"}


def test_lattice_route_spectrum_loads_only_linalg(tmp_path):
    config = str(SCENARIOS / "squares_parallel.yaml")  # a randomized sketch
    argv = ["spectrum", "--config", config, "--out", str(tmp_path / "out")]
    assert _loaded_after(argv) == {"scipy.linalg"}
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["route"] == "lattice"


def test_validate_loads_no_scipy_submodule(tmp_path):
    argv = ["validate", "--config", str(SCENARIOS / "squares_parallel.yaml"),
            "--out", str(tmp_path / "out")]
    assert _loaded_after(argv) == set()


def test_rows_route_spectrum_in_a_fresh_process_is_thread_independent(tmp_path):
    # the first cdist and hankel2 calls run inside the ordered_map workers
    cfg = tmp_path / "two_part.yaml"
    cfg.write_text(TWO_PART_YAML)
    outs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        _run(f"""
from shadowdof import cli
assert cli.main(["spectrum", "--config", {str(cfg)!r}, "--out", {str(out)!r},
                 "--threads", "{threads}"]) == 0
""")
        outs[threads] = out
    summaries = [json.loads((outs[t] / "summary.json").read_text()) for t in (1, 2)]
    assert summaries[0]["route"] == "rows" and summaries[0]["n_r"] > 512
    for summary in summaries:
        del summary["timings"]
    assert summaries[0] == summaries[1]
    for name in ("shadow.csv", "spectrum.csv"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


def test_first_kernel_import_inside_the_pool_is_thread_independent():
    # an operator built directly has no spacing check that could load
    # scipy.spatial (and with it scipy.special) on the calling thread, so the
    # two row spans' workers import both concurrently
    digests = []
    for threads in (1, 2):
        out = _run(f"""
import hashlib
import numpy as np
from shadowdof import ChannelOperator, Region, Segment, sample_region
h = 1e-3
tx = sample_region(Region((Segment([-0.5, 0.0], [0.5, 0.0]),
                           Segment([-0.5, -0.3], [0.5, -0.3])), "T"), h)
rx = sample_region(Region((Segment([-0.5, 1.0], [0.5, 1.0]),), "R"), h)
op = ChannelOperator("scalar2d", 2 * np.pi / (5 * h), tx, rx, threads={threads})
assert op.route == "rows" and op.n_rows > 512
x = np.random.default_rng(0).standard_normal((op.n_cols, 4)) + 0j
before = [m for m in {SUBMODULES!r} if m in sys.modules]
assert before == [], before
y = op.apply(x)
assert "scipy.spatial" in sys.modules and "scipy.special" in sys.modules
print(hashlib.sha256(y.tobytes()).hexdigest())
""")
        digests.append(out.split()[-1])
    assert digests[0] == digests[1]
