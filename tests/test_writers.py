"""The columnar table writer against an independent per-value reference."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadowdof.cli as cli
from shadowdof.geometry import PlanarPolygon, Segment
from shadowdof.shadow import Region, total_mutual_shadow


def _reference(columns: dict, fmt: str, preamble=None) -> str:
    """The file text, one value at a time: str of each int, repr of each float;
    JSON rows are json.dump objects with every value as a float."""
    header = list(columns)
    rows = list(zip(*columns.values()))
    if fmt == "json":
        payload = [dict(zip(header, [float(v) for v in row])) for row in rows]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def text(v):
        return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))

    lines = ([preamble] if preamble else []) + [",".join(header)]
    lines += [",".join(text(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def _written(tmp_path, columns: dict, fmt: str, preamble=None) -> str:
    path = cli._write_table(tmp_path / "table.csv", columns, fmt, preamble=preamble)
    assert path.name == ("table.json" if fmt == "json" else "table.csv")
    return path.read_bytes().decode("utf-8")


SPECIAL = [0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, math.nan, math.inf, -math.inf,
           0.0, 1e16, -0.0, 0.1 + 0.2, 0.30000000000000004, -5e-324, 1.0]

TABLES = {
    "specials": {"x": SPECIAL, "y": np.array(SPECIAL[::-1]), "n": np.arange(len(SPECIAL))},
    "numpy and python ints": {"i": [1, -2, 3, 2**40], "j": np.array([7, 7, 0, -1]),
                              "u": np.array([0, 1, 2, 3], dtype=np.uint32),
                              "v": np.array([0.5, 0.5, -0.5, 0.25])},
    "strided numpy columns": dict(zip(("theta", "phi"),
                                      np.arange(12.0).reshape(6, 2).T / 7.0)),
    "empty": {"n": np.arange(0), "sigma": np.zeros(0)},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(TABLES))
def test_writer_matches_per_value_reference(tmp_path, name, fmt):
    columns = TABLES[name]
    assert _written(tmp_path, columns, fmt) == _reference(columns, fmt)
    preamble = "# total = 1.5 rule = test"
    assert _written(tmp_path, columns, fmt, preamble) == _reference(
        columns, fmt, None if fmt == "json" else preamble)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zero_signs_and_nans_keep_their_text(tmp_path, fmt):
    text = _written(tmp_path, {"x": [0.0, -0.0, math.nan, 0.0, -0.0]}, fmt)
    if fmt == "csv":
        assert text == "x\n0.0\n-0.0\nnan\n0.0\n-0.0\n"
    else:
        assert [row["x"] for row in json.loads(text)][:2] == [0.0, -0.0]
        assert '"x": NaN' in text and text.count('"x": -0.0') == 2


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.integers(0, 2**64 - 1), min_size=width, max_size=width), max_size=40)))
def test_writer_on_random_bit_patterns(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("bits")
    width = len(rows[0]) if rows else 1
    bits = np.array(rows, dtype=np.uint64).reshape(len(rows), width)
    columns = {f"c{j}": bits[:, j].view(np.float64) for j in range(width)}
    for fmt in ("csv", "json"):
        assert _written(tmp_path, columns, fmt) == _reference(columns, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_command_writers_match_reference(tmp_path, fmt):
    spec = SimpleNamespace(sigma=np.array([3.0, 1.0, 1.0, 0.0]),
                           zeta=np.array([0.6, 0.2, 0.2, 0.0]))
    path = cli.write_spectrum_csv(tmp_path / "spectrum.csv", spec, 7.0, fmt)
    assert path.read_text(encoding="utf-8") == _reference(
        {"n": range(1, 5), "sigma": spec.sigma, "zeta": spec.zeta,
         "zeta_times_na": [z * 7.0 for z in spec.zeta]}, fmt)

    plate = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    lines = (Region((Segment([0.0, 0.0], [1.0, 0.0]),), "T"),
             Region((Segment([0.0, 1.0], [1.0, 1.0]),), "R"))
    plates = (Region((PlanarPolygon(plate, [0, 0, 1.0]),), "T"),
              Region((PlanarPolygon([[x, y, 1.0] for x, y, _ in plate], [0, 0, 1.0]),), "R"))
    for msr in (total_mutual_shadow(*lines, n_directions=64),
                total_mutual_shadow(*plates, n_theta=6, n_phi=12)):
        angles = np.reshape(msr.angles, (msr.n_directions, -1))
        names = ["phi"] if msr.dim == 2 else ["theta", "phi"]
        columns = {**{n: angles[:, j].tolist() for j, n in enumerate(names)},
                   "weight": msr.weights.tolist(), "shadow": msr.values.tolist()}
        preamble = f"# total = {msr.total!r} rule = {msr.rule}"
        path = cli.write_shadow_csv(tmp_path / "shadow.csv", msr, fmt)
        assert path.read_text(encoding="utf-8") == _reference(
            columns, fmt, None if fmt == "json" else preamble)
