"""The ksets benchmark: one seeded workload, timed end to end or traced by
layer, with every output checked.

Usage:
    python3 perfbench/run.py --workload {exhaustive,survey,corpus}
        --seed N --seconds S --trace {0,1} [--workers W]

Run from the root of a checkout: the program is imported from ``src/``
there and nowhere else.  A run sets the workload up in-process, repeats
whole passes of the workload for about ``--seconds`` (the whole number of
passes whose total lands nearest to it, at least two), and checks each
pass's outputs after its clock stops.  Untraced runs also time the set-up
again in fresh interpreters before and between passes.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass
time), ``setup_s`` (median fresh set-up time) and ``peak_rss_mb`` (peak
resident memory of this process or any child, pool workers included).
``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics of ``tracing.py`` (medians over traced passes) and
``trace.overhead_s``, the traced minus the plain median pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (correctness checks, so
failed_frac = failed / attempted) and ``metrics``.  The lines before it
give the run environment and the digest of the pass outputs; the same
record, and in traced runs every span, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# fresh set-ups timed before the first pass and after each pass, so their
# median spans the run rather than one moment of a drifting machine
SETUP_PROBES = 2
DEFAULT_WORKERS = 2


def metric_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` lists it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


class BenchError(Exception):
    """A run that cannot start: it prints no result and exits 2."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_program():
    """Import ``ksets`` from this checkout's ``src/`` and the benchmark's
    own modules."""
    if not (SRC / "ksets" / "__init__.py").is_file():
        raise BenchError(f"no ksets package under {SRC}; run from a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ksets

    if Path(ksets.__file__).resolve().parent != (SRC / "ksets").resolve():
        raise BenchError(f"ksets imported from {ksets.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def git_rev() -> str | None:
    # git must not look above the checkout: a checkout nested in some
    # other repository has no rev of its own
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.resolve().parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ksets").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def probe_setup(name: str) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def measure(
    workloads,
    tracing,
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    workers: int,
    setup_probes: int = SETUP_PROBES,
    out_dir: Path = OUT,
) -> dict:
    """Run one workload; return its metrics, checks and pass digest."""
    ctx = workloads.Context(seed, workers, out_dir / "tmp")
    checks = workloads.Checks()
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install([workloads])
    try:
        state = workload.setup()
    finally:
        if tracer:
            tracer.uninstall()
    setup: list[float] = []

    def probe() -> None:
        # traced runs report no set-up time
        if not tracer:
            setup.extend(probe_setup(workload.name) for _ in range(setup_probes))

    probe()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    digests: list[str] = []
    while True:
        # traced runs alternate plain and traced passes, plain first
        with_trace = tracer is not None and len(plain) > len(traced)
        if with_trace:
            tracer.run = f"{workload.name}:{seed}:{len(plain) + len(traced)}"
            tracer.install([workloads])
        t0 = time.perf_counter()
        try:
            raw = workload.run(state, ctx, checks)
        finally:
            if with_trace:
                tracer.uninstall()
        (traced if with_trace else plain).append(time.perf_counter() - t0)
        # output checks that call the program again are neither timed
        # nor traced
        digests.append(workloads.digest(workload.verify(raw, checks)))
        probe()
        if with_trace:
            layers.append(tracer.layer_metrics(tracer.run))
        # stop at the pass count whose total lands nearest to ``seconds``,
        # but not before two passes (one plain and one traced when
        # tracing), so that no result rests on a single pass
        spent = sum(plain) + sum(traced)
        half_pass = (plain[-1] if plain else traced[-1]) / 2
        if spent + half_pass >= seconds and len(plain) + len(traced) >= 2:
            break
    for i, d in enumerate(digests[1:], start=2):
        checks.check(f"pass {i} output differs from pass 1", d == digests[0])

    if tracer:
        metrics = {
            name: statistics.median(run[name] for run in layers)
            for name in layers[0]
        }
        metrics.update(tracer.setup_metrics())
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(
            plain
        )
    else:
        metrics = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }
    units = metric_units()
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "digest": digests[0],
        "passes": {"plain_s": plain, "traced_s": traced, "setup_s": setup},
        "tracer": tracer,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"survey worker processes (default: {DEFAULT_WORKERS}, "
        "or nproc if smaller); refused above nproc",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cores = nproc()
        workers = args.workers if args.workers is not None else min(DEFAULT_WORKERS, cores)
        if not 1 <= workers <= cores:
            raise BenchError(f"--workers {workers} outside 1..nproc ({cores})")
        workloads, tracing = load_program()
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(
                f"unknown workload {args.workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}"
            )
        env = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workers": workers,
            "nproc": cores,
            "python": platform.python_version(),
            "git_rev": git_rev(),
            "src_sha256": src_digest(),
        }
        res = measure(
            workloads,
            tracing,
            workloads.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            workers,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = res.pop("tracer")
    if tracer:
        tracer.write(OUT / "trace" / f"{stem}.spans.jsonl.gz")
    record = {"env": env, **res}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {res['digest']}")
    for name, m in res["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"{'failed_frac':40s} {frac:.6g} ({res['failed']} of {res['attempted']} checks)")
    for failure in res["failures"][:20]:
        print(f"FAIL {failure}")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": res["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
