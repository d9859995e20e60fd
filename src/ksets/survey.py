"""Iterative edge-stripping survey: strip, filter, deduplicate, classify.

One stage takes the surviving KS representatives at b edges and produces
those at b-1: strip one edge from each input, drop unconnected children,
remove exact duplicates, remove isomorphic duplicates, keep the KS sets,
and archive any criticals among them.  Stages checkpoint to the output
directory (survivors, criticals, one JSON record each) and a rerun resumes
at the first missing stage.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import Counter
from dataclasses import dataclass, fields
from math import isfinite
from pathlib import Path
from sys import float_info
from typing import Callable, Iterator, Sequence

from .canon import dedupe_isomorphic, edge_orbits
from .cell600 import build_600cell
from .coloring import (
    COLORABLE,
    CRITICAL,
    classify,
    is_ks,  # noqa: F401 - unused, but the benchmark's tracer checks it
)
from .mmp import (
    Hypergraph,
    LENIENT,
    _connected,
    is_connected,
    read_mmp_file,
    serialize_mmp,
    write_mmp_file,
)
from .strip import SELECTION_MODES, one_edge_children

log = logging.getLogger(__name__)

# every critical set reported so far falls in this window; anything outside
# would be a genuinely new kind and deserves a loud flag, not a quiet tally
KNOWN_VERTEX_RANGE = (26, 60)
KNOWN_EDGE_RANGE = (13, 41)


class ConfigError(ValueError):
    """Malformed survey configuration."""


@dataclass(frozen=True)
class SurveyConfig:
    """Parameters of one survey run.

    ``increment`` is either a fixed thinning increment or None for
    auto-calibration against ``target`` from a pilot sample at each stage.
    ``workers`` is validated but read by nothing: every stage runs in
    process.  It stays accepted because ``perfbench/workloads.py`` and
    existing config files set it.
    """

    start: Hypergraph | None = None  # None: the built 600-cell 60-75
    target: int = 50000
    min_edges: int = 0
    increment: float | None = None
    selection_mode: str = "uniform"
    seed: int = 0
    workers: int = 1
    output_dir: Path = Path("survey-out")

    def __post_init__(self) -> None:
        if self.target < 1:
            raise ConfigError("target must be at least 1")
        # the default start, the 600-cell's 60-75, has 75 edges
        edges = 75 if self.start is None else self.start.num_edges
        if not 0 <= self.min_edges < edges:
            raise ConfigError(
                f"min-edges must lie within [0, {edges - 1}] for a start with "
                f"{edges} edges, got {self.min_edges}"
            )
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        inc = self.increment
        if inc is not None and not (isfinite(inc) and inc >= 1):
            raise ConfigError(
                f"increment must be a finite number >= 1, got {inc}"
            )
        if self.selection_mode not in SELECTION_MODES:
            raise ConfigError(
                f"mode must be one of {', '.join(SELECTION_MODES)}, "
                f"got {self.selection_mode!r}"
            )


def parse_config(text: str, base_dir: Path | None = None) -> SurveyConfig:
    """Key-value config lines: ``key = value``, '#' comments, blank lines
    ignored.  Keys: start (path to an MMP file, or '600-cell'), target,
    min-edges, increment (number or 'auto'), mode, seed, workers, out."""
    values: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        values[key] = val
    known = {"start", "target", "min-edges", "increment", "mode", "seed",
             "workers", "out"}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    base = base_dir or Path(".")
    kwargs: dict = {}
    try:
        if values.get("start", "600-cell") != "600-cell":
            path = base / values["start"]
            hs = read_mmp_file(path, LENIENT)
            if len(hs) != 1:
                raise ConfigError(f"{path}: expected exactly one MMP line")
            kwargs["start"] = hs[0]
        if "target" in values:
            kwargs["target"] = int(values["target"])
        if "min-edges" in values:
            kwargs["min_edges"] = int(values["min-edges"])
        inc = values.get("increment", "auto")
        kwargs["increment"] = None if inc == "auto" else float(inc)
        if "mode" in values:
            kwargs["selection_mode"] = values["mode"]
        if "seed" in values:
            kwargs["seed"] = int(values["seed"])
        if "workers" in values:
            kwargs["workers"] = int(values["workers"])
        if "out" in values:
            kwargs["output_dir"] = base / values["out"]
    except (ValueError, OSError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return SurveyConfig(**kwargs)


def check_field(name: str, value: object, real: bool = False) -> None:
    """Refuse a record field unless it is an int >= 0, or with ``real`` a
    finite number; a bool is neither."""
    if real:
        want = "a finite number"
        ok = isinstance(value, (int, float)) and abs(value) <= float_info.max
    else:
        want, ok = "an int >= 0", isinstance(value, int) and value >= 0
    if isinstance(value, bool) or not ok:
        raise ValueError(f"field {name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class StageResult:
    """Survivor counts down one stage's filter chain."""

    edges: int
    inputs: int
    children: int
    connected: int
    exact_unique: int
    non_isomorphic: int
    ks: int
    criticals_odd: int
    criticals_even: int
    seconds: float

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            check_field(name, value, real=name == "seconds")
        chain = (
            self.children,
            self.connected,
            self.exact_unique,
            self.non_isomorphic,
            self.ks,
        )
        if any(a < b for a, b in zip(chain, chain[1:])):
            raise ValueError(f"filter chain counts increased: {chain}")

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "StageResult":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        names = {f.name for f in fields(StageResult)}
        for problem, keys in (
            ("missing", names - data.keys()),
            ("unknown", data.keys() - names),
        ):
            if keys:
                raise ValueError(f"{problem} fields {', '.join(sorted(keys))}")
        return StageResult(**data)


def calibrate_increment(sample: Sequence[Hypergraph], target: int) -> float:
    """Thinning increment so one strip+connectivity stage over the sample's
    population lands near ``target`` survivors.

    The pilot measures the connected-child yield per input; increment 1 is
    returned (with a warning) when the pilot finds no survivors at all.
    """
    sample = list(sample)
    if not sample:
        raise ValueError("calibration sample is empty")
    if target < 1:
        raise ValueError("target must be at least 1")
    survivors = sum(
        _connected(h.masks[:i] + h.masks[i + 1 :])
        for h in sample
        for i in range(h.num_edges)
    )
    if survivors == 0:
        log.warning("calibration pilot found no surviving children")
        return 1.0
    return max(1.0, survivors / target)


def run_stage(
    inputs: Sequence[Hypergraph], cfg: SurveyConfig, edges: int
) -> tuple[StageResult, list[Hypergraph], list[Hypergraph]]:
    """One filter stage: returns (record, KS survivors, criticals) from
    one in-process classification pass over the class representatives.

    Thinning, exact-duplicate removal and the connectivity filter run over
    every child, so the stage's counts are those of labeling every kept
    child.  A parent that keeps two or more children is labeled once for
    its edge orbits, and only the first kept child of each orbit is
    labeled: a later one is isomorphic to an earlier kept sibling, so the
    representatives and their order are unchanged.
    """
    t0 = time.monotonic()
    if cfg.increment is not None:
        increment = cfg.increment
    else:
        increment = calibrate_increment(inputs[:100], cfg.target)
    # one_edge_children thins and removes exact duplicates
    stream = one_edge_children(
        inputs, increment, cfg.selection_mode, cfg.seed + edges
    )
    children = list(stream)
    kept = [(p, i, h) for p, i, h in children if is_connected(h)]
    per_parent = Counter(p for p, _, _ in kept)
    orbits: dict[int, list[int]] = {}
    first_of_orbit: dict[tuple[int, int], Hypergraph] = {}
    for p, i, h in kept:
        if per_parent[p] > 1:
            if p not in orbits:
                orbits[p] = edge_orbits(inputs[p])
            i = orbits[p][i]
        first_of_orbit.setdefault((p, i), h)
    reps = list(dedupe_isomorphic(first_of_orbit.values()))
    kinds = [classify(h) for h in reps]
    ks_sets = [h for h, kind in zip(reps, kinds) if kind != COLORABLE]
    criticals = [h for h, kind in zip(reps, kinds) if kind == CRITICAL]
    odd = sum(1 for h in criticals if h.num_edges % 2 == 1)
    result = StageResult(
        edges=edges,
        inputs=len(inputs),
        children=len(children),
        connected=len(kept),
        exact_unique=len(kept),
        non_isomorphic=len(reps),
        ks=len(ks_sets),
        criticals_odd=odd,
        criticals_even=len(criticals) - odd,
        seconds=round(time.monotonic() - t0, 3),
    )
    return result, ks_sets, criticals


def _stage_paths(out: Path, edges: int) -> tuple[Path, Path, Path]:
    return (
        out / f"edges-{edges:02d}.mmp",
        out / f"edges-{edges:02d}.criticals.mmp",
        out / f"edges-{edges:02d}.json",
    )


def run_survey(cfg: SurveyConfig) -> Iterator[StageResult]:
    """Drive stages from the start hypergraph down to cfg.min_edges.

    Every stage writes its survivors, criticals, and record before the next
    begins; stages whose files already exist are loaded, not recomputed, so
    an interrupted run resumes where it stopped.  A loaded record must
    follow the stage before it and count its archives' sets, each of the
    stage's edge count.  All randomness derives from cfg.seed.
    """
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    start = cfg.start if cfg.start is not None else build_600cell().hypergraph
    survivors = [start]
    for edges in range(start.num_edges - 1, cfg.min_edges - 1, -1):
        mmp_path, crit_path, json_path = _stage_paths(out, edges)
        if mmp_path.exists() and json_path.exists():
            try:
                result = StageResult.from_json(
                    json_path.read_text(errors="surrogateescape")
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{json_path}: {exc}") from exc
            if result.edges != edges:
                raise ValueError(
                    f"{json_path}: record for {result.edges} edges"
                )
            if result.inputs != len(survivors):
                raise ValueError(
                    f"{json_path}: inputs {result.inputs} disagrees with the "
                    f"{len(survivors)} survivors of the stage before it"
                )
            survivors = read_mmp_file(mmp_path)
            if result.ks != len(survivors):
                raise ValueError(
                    f"{json_path}: ks {result.ks} disagrees with the "
                    f"{len(survivors)} lines of {mmp_path.name}"
                )
            try:
                criticals = read_mmp_file(crit_path)
            except OSError as exc:
                raise ValueError(f"{crit_path}: {exc.strerror}") from exc
            want = result.criticals_odd + result.criticals_even
            if len(criticals) != want:
                raise ValueError(
                    f"{crit_path}: {len(criticals)} lines disagree with the "
                    f"{want} criticals of {json_path.name}"
                )
            for path, hs in ((mmp_path, survivors), (crit_path, criticals)):
                for h in hs:
                    if h.num_edges != edges:
                        raise ValueError(
                            f"{path}: a set of {h.num_edges} edges in a "
                            f"stage of {edges}"
                        )
            yield result
            continue
        if not survivors:
            log.info("no survivors left at %d edges; stopping", edges + 1)
            return
        result, survivors, criticals = run_stage(survivors, cfg, edges)
        for h in criticals:
            _flag_if_novel(h)
        _replace(mmp_path, lambda tmp: write_mmp_file(tmp, survivors))
        _replace(crit_path, lambda tmp: write_mmp_file(tmp, criticals))
        _replace(json_path, lambda tmp: tmp.write_text(result.to_json() + "\n"))
        yield result


def _replace(path: Path, write: Callable[[Path], object]) -> None:
    """Let ``write`` fill a temp file in the same directory, then rename it
    over ``path``: a crash leaves the old file or none, never a truncated
    one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _flag_if_novel(h: Hypergraph) -> None:
    vlo, vhi = KNOWN_VERTEX_RANGE
    elo, ehi = KNOWN_EDGE_RANGE
    if not (vlo <= h.num_vertices <= vhi and elo <= h.num_edges <= ehi):
        log.warning(
            "critical set %s outside every known signature range; "
            "this would be a new kind of set, please inspect: %s",
            h.signature,
            serialize_mmp(h),
        )
