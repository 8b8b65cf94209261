"""SHA-256 digests of every CSV and run summary the bundled scenarios and figures produce.

    python3 tools/digest_outputs.py [--threads N]

Run it from the root of a checkout; the program is imported from ./src.
It runs ``spectrum``, ``capacity --modes`` and ``validate --out`` on each
``scenarios/*.yaml``, ``validate --out`` on one plan the cap refuses
(``squares_parallel.yaml`` at ``target_ndof: 2500``, whose report carries
the refusal's text), and ``reproduce`` on every figure at its defaults, all
at ``--threads N`` (default 1; ``validate`` takes no threads) and one BLAS
thread, into a temporary directory.  It prints one ``sha256  path`` line
per CSV, per ``summary.json`` and per ``validate.json``, sorted by path, so
comparing two checkouts is a ``diff`` of their outputs.  A summary is
digested with its ``timings`` removed (re-serialized as the program writes
it), so the digest covers every other field (``n_e``, ``n_k``,
``captured_energy``, ...) but no clock.

Then it prints one ``sha256  rings/NAME  total=HEX`` line for each 3D ring
path that no bundled file runs (a plate against a sphere outline, a mesh
hull against a plate, a union of sphere outlines, and a transmitter-only
far-field total): the digest of the per-direction values' bytes, and the
total as ``float.hex``.  The exit code is 1 if any command failed.
"""

import os

# One BLAS/OpenMP thread, so the bits do not depend on the machine's cores.
# Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import yaml  # noqa: E402


def _commands(out: Path, threads: int, cli) -> list[list[str]]:
    common = ["--threads", str(threads)]
    runs = []
    for config in sorted(Path("scenarios").glob("*.yaml")):
        for command, extra in (("spectrum", []), ("capacity", ["--modes"])):
            runs.append([command, "--config", str(config),
                         "--out", str(out / command / config.stem), *extra, *common])
        runs.append(["validate", "--config", str(config),
                     "--out", str(out / "validate" / config.stem)])
    data = yaml.safe_load(Path("scenarios/squares_parallel.yaml").read_text())
    refused = out / "squares_parallel_na2500.yaml"
    refused.write_text(yaml.safe_dump({**data, "target_ndof": 2500}))
    runs.append(["validate", "--config", str(refused),
                 "--out", str(out / "validate" / refused.stem)])
    runs += [["reproduce", figure, "--out", str(out / "reproduce"), *common]
             for figure in cli.FIGURE_IDS]
    return runs


def _ring_totals(sd):
    """The shadow results of the 3D ring paths that no bundled scenario runs."""
    def plate(z):
        return sd.PlanarPolygon([[0, 0, z], [1, 0, z], [1, 1, z], [0, 1, z]], [0, 0, 1.0])

    region = sd.Region
    yield "plate-sphere-ring", sd.total_mutual_shadow(
        region((plate(0.0),)), region((sd.Sphere([0.5, 0.5, 2.0], 0.4),)),
        n_theta=48, n_phi=96)
    yield "mesh-hull-plate", sd.total_mutual_shadow(
        region((sd.mesh_plate([0, 0, 0], [1, 0, 0], [0, 1, 0], 0.25),)), region((plate(1.0),)),
        n_theta=24, n_phi=48)
    yield "sphere-stack-union", sd.total_mutual_shadow(
        region((sd.Sphere([0, 0, 0], 0.5), sd.Sphere([0, 0, 1.5], 0.5))),
        region((sd.Sphere([0, 0, 6.0], 0.5),)), n_theta=12, n_phi=24)
    yield "plate-farfield-quarter", sd.total_shadow(
        region((plate(0.0),)), sd.sphere_quadrature(48, 96, phi_range=(0.3, 0.3 + math.pi / 2)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="digests of every bundled CSV and summary")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    if not Path("src/shadowdof/__init__.py").is_file():
        sys.exit("digest_outputs: no src/shadowdof here; run from the root of a checkout")
    sys.path.insert(0, str(Path("src").resolve()))
    import shadowdof
    from shadowdof import cli

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for command in _commands(out, args.threads, cli):
            with contextlib.redirect_stdout(io.StringIO()):  # validate prints its report too
                rc = cli.main(command)
            if rc != 0:
                print(f"digest_outputs: failed: {' '.join(command)}", file=sys.stderr)
                failed += 1
        for path in sorted([*out.rglob("*.csv"), *out.rglob("summary.json"),
                            *out.rglob("validate.json")]):
            data = path.read_bytes()
            if path.name == "summary.json":
                summary = json.loads(data)
                summary.pop("timings", None)
                data = json.dumps(summary, indent=2, sort_keys=True).encode()
            digest = hashlib.sha256(data).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    for name, msr in _ring_totals(shadowdof):
        digest = hashlib.sha256(msr.values.tobytes()).hexdigest()
        print(f"{digest}  rings/{name}  total={float(msr.total).hex()}")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
