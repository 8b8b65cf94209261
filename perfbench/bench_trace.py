"""Outside-in layer trace of shadowdof.

The tracer replaces the public calls into each layer, in the namespaces
that call them, with wrappers that record a span: name, start, end and
parent.  Spans stay in memory until the run ends.  Calls made once per
illumination direction (the geometry layer) are too many to keep one by
one; they are summed per name and still charged to their parent span.

A layer's self time is the duration of its spans minus the time covered by
their child spans, so the self times of one traced round add up to the
round's wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# traced name -> per-layer metric its self time is charged to
SELF_TIME_METRIC = {
    "bench.round": "trace.unattributed_s",
    "cli.main": "cli.self_s",
    "cli.write_shadow_csv": "cli.write_s",
    "cli.write_spectrum_csv": "cli.write_s",
    "cli.write_summary_json": "cli.write_s",
    "scenario.load_scenario": "scenario.self_s",
    "scenario.run_scenario": "scenario.self_s",
    "scenario.compute_shadow": "scenario.self_s",
    "scenario.build_channel": "scenario.self_s",
    "scenario.compute_spectrum": "scenario.self_s",
    "quadrature.scene_sphere_quadrature": "quadrature.build_s",
    "quadrature.scene_circle_quadrature": "quadrature.build_s",
    "quadrature.sphere_quadrature": "quadrature.build_s",
    "quadrature.circle_quadrature": "quadrature.build_s",
    "shadow.total_mutual_shadow": "shadow.total_s",
    "shadow.total_shadow": "shadow.total_s",
    "geometry.project_shape_3d": "geometry.s",
    "geometry.convex_polygon_intersection": "geometry.s",
    "channel.sample_region": "channel.sampling_s",
    "channel.assemble_channel": "channel.assemble_s",
    "channel.ports_from_quadrature": "channel.assemble_s",
    "channel.row_block": "channel.kernel_s",
    "channel.apply": "channel.matmul_s",
    "channel.adjoint_apply": "channel.matmul_s",
    "channel.dense": "channel.dense_s",
    "spectra.dense_spectrum": "spectra.self_s",
    "spectra.randomized_spectrum": "spectra.self_s",
    "spectra.qr": "spectra.qr_s",
    "spectra.svd": "spectra.svd_s",
}

def _entries(args, kwargs, result):
    return {"channel.kernel_entries": int(result.size)}


def _directions(args, kwargs, result):
    return {"shadow.directions": int(result.n_directions)}


def _pass(args, kwargs, result):
    return {"channel.operator_passes": 1}


class Tracer:
    """Span recorder; ``install`` patches the program, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._patches: list[tuple] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, start, end, leaf):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        if not leaf:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((frame[0], parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, start, time.perf_counter(), False)

    def wrap(self, name, fn, leaf=False, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, name, start, time.perf_counter(), leaf)
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    self.counts[key] += n
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, name, leaf=False, count=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, leaf, count))

    def install(self, cli_module):
        """Wrap the layer entry points where shadowdof's own modules look them up."""
        import shadowdof.channel as channel
        import shadowdof.scenario as scenario
        import shadowdof.shadow as shadow

        for attr in ("main", "write_shadow_csv", "write_spectrum_csv", "write_summary_json"):
            self._patch(cli_module, attr, f"cli.{attr}")
        for attr in ("load_scenario", "run_scenario", "compute_shadow"):
            self._patch(cli_module, attr, f"scenario.{attr}")
        for attr in ("compute_shadow", "build_channel", "compute_spectrum"):
            self._patch(scenario, attr, f"scenario.{attr}")
        for attr in ("scene_circle_quadrature", "sphere_quadrature", "circle_quadrature"):
            self._patch(scenario, attr, f"quadrature.{attr}")
        for attr in ("scene_circle_quadrature", "scene_sphere_quadrature"):
            self._patch(shadow, attr, f"quadrature.{attr}")
        for attr in ("total_mutual_shadow", "total_shadow"):
            self._patch(scenario, attr, f"shadow.{attr}", count=_directions)
        for attr in ("project_shape_3d", "convex_polygon_intersection"):
            self._patch(shadow, attr, f"geometry.{attr}", leaf=True)
        for attr in ("sample_region", "assemble_channel", "ports_from_quadrature"):
            self._patch(scenario, attr, f"channel.{attr}")
        op = channel.ChannelOperator
        self._patch(op, "row_block", "channel.row_block", count=_entries)
        self._patch(op, "apply", "channel.apply", count=_pass)
        self._patch(op, "adjoint_apply", "channel.adjoint_apply", count=_pass)
        self._patch(op, "dense", "channel.dense")
        for attr in ("dense_spectrum", "randomized_spectrum"):
            self._patch(scenario, attr, f"spectra.{attr}")
        self._patch(np.linalg, "qr", "spectra.qr")
        self._patch(np.linalg, "svd", "spectra.svd")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round self times and counts of the traced rounds."""
        out = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
        for name, seconds in self.self_s.items():
            out[SELF_TIME_METRIC[name]] += seconds
        out["shadow.directions"] = self.counts["shadow.directions"]
        out["geometry.project_calls"] = self.calls["geometry.project_shape_3d"]
        out["geometry.clip_calls"] = self.calls["geometry.convex_polygon_intersection"]
        out["channel.kernel_entries"] = self.counts["channel.kernel_entries"]
        out["channel.operator_passes"] = self.counts["channel.operator_passes"]
        out = {key: value / rounds for key, value in out.items()}
        per_direction = out["shadow.total_s"] + out["geometry.s"]
        out["shadow.us_per_direction"] = (1e6 * per_direction / out["shadow.directions"]
                                          if out["shadow.directions"] else 0.0)
        return out

    def write(self, path, extra: dict):
        """Write the spans, per-name totals and run facts as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": extra}) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({"name": name, "calls": self.calls[name],
                                     "self_s": self.self_s[name]}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"span": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
