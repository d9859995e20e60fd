"""The ``ks`` command line: stripping, canonicalization, coloring,
criticality, loops, 600-cell construction, estimators, and the survey
driver.  All hypergraph files are newline-delimited MMP lines."""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from math import comb, isfinite
from pathlib import Path

import click

from . import __version__
from .canon import canonical_labeling
from .cell600 import build_600cell, format_vectors
from .coloring import is_colorable, is_critical
from .layout import LayoutConfig, emit_layout
from .loops import biggest_loop, format_annotated, loop_arrangements
from .mmp import (
    LENIENT,
    Hypergraph,
    MmpError,
    parse_mmp,
    read_mmp_file,
    vertex_to_chars,
    write_mmp_file,
)
from .stats import (
    DEFAULT_DIGITS,
    MIN_DIGITS,
    confidence_bounds,
    coupon_mle,
)
from .strip import StripPlan, enumerate_subsets
from .survey import ConfigError, StageResult, parse_config, run_survey

# an input that names a directory is a usage error, not a traceback
_IN_FILE = click.Path(exists=True, dir_okay=False)


class _OutPath(click.Path):
    """An output file, or with ``directory`` a directory made on demand
    with its parents.  These are usage errors, raised before any input is
    read: an existing path of the other kind, a file in a directory that
    does not exist, and a directory under a regular file."""

    def __init__(self, directory: bool = False) -> None:
        super().__init__(file_okay=not directory, dir_okay=directory)

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        path = Path(value)
        parent = path.parent
        if self.dir_okay:  # created with its parents: check the nearest one
            parent = next((p for p in path.parents if p.exists()), parent)
        if not parent.is_dir():
            why = "is not a directory" if parent.exists() else "does not exist"
            self.fail(f"'{parent}' {why}.", param, ctx)
        return value


_OUT_FILE = _OutPath()


def _read(path: str) -> list[Hypergraph]:
    """Parse leniently (the published 60-40 line needs it); an invalid line
    is a clean error naming file and line."""
    try:
        return read_mmp_file(path, LENIENT)
    except MmpError as exc:
        raise click.ClickException(str(exc))


def _finite(ctx, param, value):
    """Refuse nan and infinities, which every range bound lets through."""
    if not isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Generate, filter, classify, and survey MMP hypergraphs."""


@main.command()
@click.option("--in", "infile", required=True, type=_IN_FILE)
@click.option("--k", required=True, type=click.IntRange(min=0),
              help="Edges to remove.")
@click.option("--window", default=None, help="Colex rank window A:B.")
@click.option("--increment", default=1.0, type=click.FloatRange(min=1.0),
              callback=_finite, show_default=True)
@click.option("--random", "randomized", is_flag=True,
              help="Bernoulli thinning instead of uniform spacing.")
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--connected-only", is_flag=True)
@click.option("--renormalize", "renorm", is_flag=True,
              help="Drop orphaned vertices and relabel densely.")
@click.option("--out", "outfile", required=True, type=_OUT_FILE)
def strip(infile, k, window, increment, randomized, seed, connected_only,
          renorm, outfile):
    """Emit k-edge-removal subsets of each input hypergraph."""
    start = end = None
    if window:
        try:
            a, b = window.split(":")
            start, end = int(a), int(b)
        except ValueError:
            raise click.BadParameter(
                "window must be A:B with integer ranks",
                param_hint="'--window'",
            )
        if not 0 <= start <= end:
            raise click.BadParameter(
                f"need 0 <= A <= B, got {window}", param_hint="'--window'"
            )
    hs = _read(infile)
    for h in hs:
        if k > h.num_edges:
            raise click.BadParameter(
                f"cannot remove {k} of the {h.num_edges} edges of a "
                f"{h.signature} input", param_hint="'--k'"
            )
        if start is not None and start > comb(h.num_edges, k):
            raise click.BadParameter(
                f"start {start} is past the {comb(h.num_edges, k)} subsets "
                f"of a {h.signature} input", param_hint="'--window'"
            )
    plan = StripPlan(
        k=k,
        start=start,
        end=end,
        increment=increment,
        selection_mode="randomized" if randomized else "uniform",
        connectivity_filter=connected_only,
        renormalize_output=renorm,
        seed=seed,
    )
    count = write_mmp_file(
        outfile, (child for h in hs for child in enumerate_subsets(h, plan))
    )
    click.echo(f"{count} subsets written to {outfile}")


@main.command()
@click.option("--in", "infile", required=True, type=_IN_FILE)
@click.option("--out", "outfile", required=True, type=_OUT_FILE)
@click.option("--mapping", is_flag=True,
              help="Also print each input's vertex relabeling.")
def canon(infile, outfile, mapping):
    """Canonicalize and drop isomorphic duplicates."""
    hs = _read(infile)
    labelings = [canonical_labeling(h) for h in hs]
    if mapping:
        for i, (h, (_, vpos)) in enumerate(zip(hs, labelings)):
            perm = " ".join(
                f"{vertex_to_chars(v)}->{vertex_to_chars(vpos[v])}"
                for v in range(h.num_vertices)
            )
            click.echo(f"# {i}: {perm}")
    forms = dict.fromkeys(form for form, _ in labelings)
    count = write_mmp_file(outfile, (parse_mmp(c.text) for c in forms))
    click.echo(f"{len(hs)} inputs, {count} isomorphism classes")


@main.command()
@click.option("--in", "infile", required=True, type=_IN_FILE)
@click.option("--out-colorable", required=True, type=_OUT_FILE)
@click.option("--out-ks", required=True, type=_OUT_FILE)
@click.option("--witness", is_flag=True,
              help="Print each coloring's 1-valued vertices by input index.")
def color(infile, out_colorable, out_ks, witness):
    """Split inputs into colorable and KS (non-colorable) sets."""
    hs = _read(infile)
    colorings = [is_colorable(h)[1] for h in hs]
    if witness:
        for i, coloring in enumerate(colorings):
            if coloring is not None:
                ones = "".join(
                    vertex_to_chars(v) for v in sorted(coloring.ones)
                )
                click.echo(f"{i}: ones={ones}")
    n_col = write_mmp_file(
        out_colorable, (h for h, c in zip(hs, colorings) if c is not None)
    )
    n_ks = write_mmp_file(
        out_ks, (h for h, c in zip(hs, colorings) if c is None)
    )
    click.echo(f"{n_col} colorable, {n_ks} KS")


@main.command()
@click.option("--in", "infile", required=True, type=_IN_FILE)
@click.option("--out", "outfile", required=True, type=_OUT_FILE)
def critical(infile, outfile):
    """Keep only the critical KS sets."""
    hs = _read(infile)
    count = write_mmp_file(outfile, (h for h in hs if is_critical(h)))
    click.echo(f"{count} of {len(hs)} inputs are critical")


@main.command()
@click.option("--in", "infile", required=True, type=_IN_FILE)
@click.option("--all-max", is_flag=True,
              help="Enumerate every maximal-size loop arrangement.")
@click.option("--draw", "draw_dir", default=None,
              type=_OutPath(directory=True),
              help="Write one drawing per input into this directory.")
@click.option("--backend", default="svg",
              type=click.Choice(["svg", "asy"]), show_default=True)
@click.option("--tension", default=1.0, callback=_finite, show_default=True,
              type=click.FloatRange(min=0, min_open=True))
@click.option("--curl", default=1.0, callback=_finite, show_default=True,
              type=click.FloatRange(min=0, min_open=True))
def loops(infile, all_max, draw_dir, backend, tension, curl):
    """Report maximal loop sizes, with optional arrangements and drawings."""
    cfg = LayoutConfig(
        tension=tension,
        curl=curl,
        backend="asymptote" if backend == "asy" else "svg",
    )
    for i, h in enumerate(_read(infile)):
        n, loop = biggest_loop(h)
        if loop is None:
            click.echo(f"{h.signature}: no loop")
            continue
        click.echo(f"{h.signature} ({n}-gon): {format_annotated(h, loop)}")
        if all_max:
            for j, arr in enumerate(loop_arrangements(h, n)):
                click.echo(f"  arrangement {j}: {format_annotated(h, arr)}")
        if draw_dir:
            out = Path(draw_dir)
            out.mkdir(parents=True, exist_ok=True)
            ext = "asy" if backend == "asy" else "svg"
            path = out / f"{i:04d}-{h.signature}.{ext}"
            path.write_text(emit_layout(h, loop, cfg))
            click.echo(f"  drawing: {path}")


@main.command()
@click.option("--out-mmp", required=True, type=_OUT_FILE)
@click.option("--out-vectors", default=None, type=_OUT_FILE)
def cell600(out_mmp, out_vectors):
    """Construct the 600-cell's 60-75 hypergraph (and its ray vectors)."""
    rs = build_600cell()
    write_mmp_file(out_mmp, [rs.hypergraph])
    click.echo(f"60-75 written to {out_mmp}")
    if out_vectors:
        Path(out_vectors).write_text(format_vectors(rs.rays))
        click.echo(f"60 ray vectors written to {out_vectors}")


@main.group()
def stats():
    """Survey estimators: coupon MLE, confidence bounds, aggregation."""


@stats.command()
@click.option("--n", "n", required=True, type=click.IntRange(min=1),
              help="Sample count.")
@click.option("--c", "c", required=True, type=click.IntRange(min=1),
              help="Distinct classes seen.")
@click.option("--digits", default=DEFAULT_DIGITS,
              type=click.IntRange(min=MIN_DIGITS), show_default=True)
def coupon(n, c, digits):
    """Coupon-collector MLE of the total class count."""
    if c > n:
        raise click.BadParameter(
            f"{c} distinct classes exceed {n} samples", param_hint="'--c'"
        )
    click.echo(str(coupon_mle(n, c, digits)))


@stats.command()
@click.option("--K", "k", required=True, callback=_finite,
              type=click.FloatRange(min=0, min_open=True),
              help="Population size.")
@click.option("--n", "n", required=True, type=click.IntRange(min=1),
              help="Sample count.")
@click.option("--m", "m", required=True, type=click.IntRange(min=0),
              help="Observed successes.")
@click.option("--level", default=0.95, callback=_finite, show_default=True,
              type=click.FloatRange(0, 1, min_open=True, max_open=True))
@click.option("--digits", default=DEFAULT_DIGITS,
              type=click.IntRange(min=MIN_DIGITS), show_default=True)
def bounds(k, n, m, level, digits):
    """Confidence bounds on successes in the whole population."""
    if m > n:
        raise click.BadParameter(
            f"{m} successes exceed {n} samples", param_hint="'--m'"
        )
    ci = confidence_bounds(k, n, m, level, digits)
    click.echo(
        f"point {float(ci.point):.6g}  "
        f"lower {float(ci.lower):.6g}  upper {float(ci.upper):.6g}  "
        f"level {ci.level}"
    )


@stats.command()
@click.option("--in", "infile", required=True, type=_IN_FILE)
@click.option("--out", "outfile", required=True, type=_OUT_FILE)
def aggregate(infile, outfile):
    """Tabulate survey stage records (JSONL in, table out), for example
    the concatenated edges-NN.json files of a survey."""
    plot_path = Path(outfile).with_suffix(".plot.json")
    if plot_path.is_dir():
        raise click.BadParameter(
            f"its plot file '{plot_path}' is a directory.",
            param_hint="'--out'",
        )
    records: dict[int, StageResult] = {}
    first: dict[int, int] = {}  # edge count -> line of its record
    text = Path(infile).read_text(errors="surrogateescape")
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            r = StageResult.from_json(line)
        except ValueError as exc:
            raise click.ClickException(f"{infile}:{ln}: {exc}")
        if r.edges in first:
            raise click.ClickException(
                f"{infile}:{ln}: second record for {r.edges} edges "
                f"(first on line {first[r.edges]})"
            )
        first[r.edges] = ln
        records[r.edges] = r
    # one column per field and one row per edge count, ascending; the plot
    # file holds one list per field in the same order
    names = [f.name for f in fields(StageResult)]
    rows = [records[b].__dict__ for b in sorted(records)]
    table = "".join(
        "\t".join(row) + "\n"
        for row in [names] + [[str(r[n]) for n in names] for r in rows]
    )
    plot = {n: [r[n] for r in rows] for n in names}
    Path(outfile).write_text(table)
    plot_path.write_text(json.dumps(plot, indent=2) + "\n")
    click.echo(f"{len(records)} records -> {outfile}, {plot_path}")


@main.command()
@click.option("--config", "config_path", required=True, type=_IN_FILE)
def survey(config_path):
    """Run the iterative stripping survey described by a config file."""
    try:
        cfg = parse_config(
            Path(config_path).read_text(errors="surrogateescape"),
            Path(config_path).parent,
        )
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    try:
        for result in run_survey(cfg):
            click.echo(
                f"edges {result.edges}: {result.inputs} in, "
                f"{result.ks} KS, "
                f"{result.criticals_odd + result.criticals_even} critical "
                f"({result.seconds}s)"
            )
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
