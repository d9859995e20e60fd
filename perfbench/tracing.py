"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each layer's public functions, wherever a
``ksets`` module (or a module passed in) holds them by name, with a shim
that records a span: name, start, end, parent span and run id.  Calls made
inside ``ksets`` through a name another module imported, such as
``ksets.survey`` calling ``is_ks``, are therefore seen as well.  Generator
functions get one span per item pulled, so their self time is the time
spent inside the generator.  Spans stay in memory; ``layer_metrics`` turns
one run's spans into the per-layer metrics, and ``write`` saves them all.

Calls made inside process-pool workers are not recorded: a forked worker
records into its own copy of the tracer, which is discarded.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import statistics
import sys
import time
from pathlib import Path

# layer -> functions; the span name is "<layer>.<function>"
LAYERS = {
    "mmp": (
        "ksets.mmp.is_connected",
        "ksets.mmp.parse_mmp",
        "ksets.mmp.serialize_mmp",
        "ksets.mmp.validate_mmp",
        "ksets.mmp.renormalize",
    ),
    "strip": (
        "ksets.strip.enumerate_subsets",
        "ksets.strip.strip_one_each",
        "ksets.strip.sample_subsets",
    ),
    "canon": ("ksets.canon.canonical_form",),
    "coloring": (
        "ksets.coloring.is_ks",
        "ksets.coloring.is_colorable",
        "ksets.coloring.is_critical",
        "ksets.coloring.has_parity_proof",
    ),
    "loops": (
        "ksets.loops.biggest_loop",
        "ksets.loops.loop_arrangements",
        "ksets.loops.classify_edges",
    ),
    "layout": ("ksets.layout.emit_layout",),
    "stats": ("ksets.stats.coupon_mle", "ksets.stats.confidence_bounds"),
    "survey": (
        "ksets.survey.run_survey",
        "ksets.survey.run_stage",
        "ksets.survey.calibrate_increment",
    ),
    "cell600": ("ksets.cell600.build_600cell",),
}

IO_SPANS = (
    "mmp.parse_mmp",
    "mmp.serialize_mmp",
    "mmp.validate_mmp",
    "mmp.renormalize",
)


def _outcome(name: str, result):
    """The part of a call's result that a per-layer ratio needs."""
    if name in (
        "mmp.is_connected",
        "coloring.is_ks",
        "coloring.is_critical",
    ):
        return bool(result)
    if name == "coloring.is_colorable":
        return bool(result[0])
    if name == "canon.canonical_form":
        return result.text
    if name == "loops.loop_arrangements":
        return len(result)
    if name == "survey.run_stage":
        return result[0].seconds
    return None


def _stream_input_edges(name: str, args: tuple, kwargs: dict):
    """Edges offered to an unthinned ``strip_one_each`` call, the base of
    its unique ratio; None for every other generator call."""
    if name != "strip.strip_one_each":
        return None
    hs = args[0] if args else kwargs["hs"]
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    if plan.increment != 1 or not isinstance(hs, (list, tuple)):
        return None
    return sum(h.num_edges for h in hs)


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, run id, outcome]
        self.spans: list[list] = []
        # generator calls: [name, run id, input edges or None, items]
        self.streams: list[list] = []
        self.run = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, outcome=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = outcome
        self._stack.pop()

    def _call_shim(self, name: str, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = self._open(name)
            outcome = None
            try:
                result = fn(*args, **kwargs)
                outcome = _outcome(name, result)
                return result
            finally:
                self._close(idx, outcome)

        return shim

    def _generator_shim(self, name: str, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stream = [name, self.run, _stream_input_edges(name, args, kwargs), 0]
            self.streams.append(stream)
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        self._close(idx, False)
                        return
                    except BaseException:
                        self._close(idx)
                        raise
                    self._close(idx, True)
                    stream[3] += 1
                    yield item
            finally:
                gen.close()

        return shim

    def install(self, extra_modules=()) -> None:
        """Patch every layer function in each loaded ``ksets`` module and in
        ``extra_modules``, wherever it is bound by name."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == "ksets" or n.startswith("ksets.")
        ] + list(extra_modules)
        for layer, paths in LAYERS.items():
            for path in paths:
                mod_name, attr = path.rsplit(".", 1)
                original = getattr(sys.modules[mod_name], attr)
                name = f"{layer}.{attr}"
                make = (
                    self._generator_shim
                    if inspect.isgeneratorfunction(original)
                    else self._call_shim
                )
                shim = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, shim)
                            self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Save every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for idx, (name, start, end, parent, run, _) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run,
                        }
                    )
                    + "\n"
                )

    def layer_metrics(self, run: str) -> dict[str, float]:
        """Per-layer metrics of one run id (self time = span duration minus
        the time its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, list] = {}
        for idx, (name, start, end, _, span_run, outcome) in enumerate(self.spans):
            if span_run == run:
                by_name.setdefault(name, []).append(
                    (end - start, end - start - child_time[idx], outcome)
                )

        def calls(name):
            return len(by_name.get(name, ()))

        def self_s(*names):
            return sum(s for n in names for _, s, _ in by_name.get(n, ()))

        def durations(name):
            return sorted(d for d, _, _ in by_name.get(name, ()))

        def outcomes(name):
            return [o for _, _, o in by_name.get(name, ())]

        def true_ratio(name):
            got = outcomes(name)
            return sum(1 for o in got if o) / len(got) if got else 0.0

        def items(name):
            return sum(1 for o in outcomes(name) if o is True)

        def quantile(values, q):
            # nearest rank; 0 for an empty list
            if not values:
                return 0.0
            return values[max(0, math.ceil(q * len(values)) - 1)]

        m: dict[str, float] = {}
        m["mmp.is_connected.calls"] = calls("mmp.is_connected")
        m["mmp.is_connected.self_s"] = self_s("mmp.is_connected")
        m["mmp.is_connected.pass_ratio"] = true_ratio("mmp.is_connected")
        m["mmp.io.self_s"] = self_s(*IO_SPANS)

        m["strip.enumerate_subsets.yielded"] = items("strip.enumerate_subsets")
        m["strip.enumerate_subsets.self_s"] = self_s("strip.enumerate_subsets")
        m["strip.strip_one_each.yielded"] = items("strip.strip_one_each")
        m["strip.strip_one_each.self_s"] = self_s("strip.strip_one_each")
        offered = yielded = 0
        for name, stream_run, input_edges, n_items in self.streams:
            if stream_run == run and input_edges is not None:
                offered += input_edges
                yielded += n_items
        m["strip.strip_one_each.unique_ratio"] = yielded / offered if offered else 0.0
        m["strip.sample_subsets.draws"] = items("strip.sample_subsets")
        m["strip.sample_subsets.self_s"] = self_s("strip.sample_subsets")

        certs = outcomes("canon.canonical_form")
        canon_ms = [d * 1e3 for d in durations("canon.canonical_form")]
        m["canon.canonical_form.calls"] = len(certs)
        m["canon.canonical_form.self_s"] = self_s("canon.canonical_form")
        m["canon.canonical_form.p50_ms"] = quantile(canon_ms, 0.5)
        m["canon.canonical_form.p99_ms"] = quantile(canon_ms, 0.99)
        m["canon.unique_ratio"] = len(set(certs)) / len(certs) if certs else 0.0

        for fn in ("is_ks", "is_colorable", "is_critical"):
            name = f"coloring.{fn}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
            m[f"{name}.true_ratio"] = true_ratio(name)

        loop_s = durations("loops.biggest_loop")
        m["loops.biggest_loop.calls"] = len(loop_s)
        m["loops.biggest_loop.self_s"] = self_s("loops.biggest_loop")
        m["loops.biggest_loop.max_call_s"] = loop_s[-1] if loop_s else 0.0
        m["loops.loop_arrangements.self_s"] = self_s("loops.loop_arrangements")
        m["loops.loop_arrangements.found"] = sum(outcomes("loops.loop_arrangements"))

        m["layout.emit_layout.self_s"] = self_s("layout.emit_layout")
        m["stats.coupon_mle.self_s"] = self_s("stats.coupon_mle")
        m["stats.confidence_bounds.self_s"] = self_s("stats.confidence_bounds")

        stage_s = outcomes("survey.run_stage")
        m["survey.stages"] = len(stage_s)
        m["survey.run_stage.self_s"] = self_s("survey.run_stage")
        m["survey.stage_s.p50"] = statistics.median(stage_s) if stage_s else 0.0
        m["survey.calibrate_increment.self_s"] = self_s("survey.calibrate_increment")
        return m

    def setup_metrics(self) -> dict[str, float]:
        return {
            "cell600.build_600cell.s": sum(
                end - start
                for name, start, end, _, run, _ in self.spans
                if run == "setup" and name == "cell600.build_600cell"
            )
        }
