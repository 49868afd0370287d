"""Spans recorded around the public calls an op makes, and what they give.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (or -1), ``op`` the id of the op that caused
it and ``attrs`` counts attached at the call site (cells, bytes, ...).
Spans stay in memory until the run ends.  With tracing off every call
goes straight through, so untraced runs pay one extra Python call per
layer call and nothing else.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from spec import GRID_KINDS, CLI_SUBCOMMANDS


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; the yielded dict takes counts known only after
        the call returns."""
        if not self.enabled:
            yield attrs
            return
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, self.op, attrs]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Calls are sequential, so children never overlap one another."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer_metrics(spans: list[list], counted_ops, overhead_ratio: float) -> dict:
    """Every per-layer metric, as ``{name: value}``.

    Times use every span.  Counts (cells by status, vertices, polylines,
    bytes, exit-code mismatches) use only spans of ops in ``counted_ops``,
    a fixed set of ops, so that they repeat exactly for a seed.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def indices(name, **match):
        return [i for i in by_name.get(name, ())
                if all(spans[i][5].get(k) == v for k, v in match.items())]

    def per_call_us(name, **match):
        idx = indices(name, **match)
        return 1e6 * sum(own[i] for i in idx) / len(idx) if idx else 0.0

    def per_unit_us(name, unit, **match):
        idx = indices(name, **match)
        units = sum(spans[i][5][unit] for i in idx)
        return 1e6 * sum(own[i] for i in idx) / units if units else 0.0

    def counted(name, key):
        return sum(spans[i][5][key] for i in by_name.get(name, ())
                   if spans[i][4] in counted_ops)

    def counted_mean(name, key):
        values = [spans[i][5][key] for i in by_name.get(name, ())
                  if spans[i][4] in counted_ops]
        return sum(values) / len(values) if values else 0.0

    m = {}
    for layer in ("expressions.parse", "families.factory", "families.value",
                  "families.jet", "jets.apply_elementary",
                  "curvature.scalar_from_factor_jet", "curvature.fd_ricci_oracle",
                  "curvature.einstein_residual", "charts.compactify",
                  "analysis.constancy_report"):
        m[f"{layer}.us_per_call"] = per_call_us(layer)
    grid = "analysis.sample_grid"
    for kind in GRID_KINDS:
        m[f"{grid}.{kind}.us_per_cell"] = per_unit_us(grid, "cells", kind=kind)
    m[f"{grid}.jet_us_per_cell"] = per_unit_us(grid, "cells", mode="jet")
    m[f"{grid}.value_us_per_cell"] = per_unit_us(grid, "cells", mode="value")
    sampled = counted(grid, "cells")
    m[f"{grid}.valid_ratio"] = counted(grid, "valid") / sampled if sampled else 0.0
    for status in ("singular", "domain_error", "outside"):
        m[f"{grid}.{status}_cells"] = counted(grid, status)
    levels = "analysis.extract_level_sets"
    m[f"{levels}.us_per_cell"] = per_unit_us(levels, "cells")
    m[f"{levels}.vertices"] = counted(levels, "vertices")
    m[f"{levels}.polylines"] = counted(levels, "polylines")
    for fmt in ("svg", "csv", "json"):
        m[f"analysis.export.{fmt}_us"] = per_call_us(f"analysis.export.{fmt}")
        m[f"analysis.export.{fmt}_bytes"] = counted_mean(f"analysis.export.{fmt}", "bytes")

    runs = [spans[i][5] for i in by_name.get("cli.invocation", ())]
    m["cli.interpreter_ms"] = _median_ms(r["interpreter_s"] for r in runs)
    m["cli.import_ms"] = _median_ms(r["import_s"] for r in runs)
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main_ms.{sub}"] = _median_ms(
            r["main_s"] for r in runs if r["subcommand"] == sub)
    m["cli.exit_code_mismatches"] = counted("cli.invocation", "exit_code_mismatch")
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def _median_ms(values) -> float:
    values = list(values)
    return 1e3 * statistics.median(values) if values else 0.0
