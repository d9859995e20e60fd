"""Fast checks of the benchmark itself, on reduced workloads: every metric
named in BENCHMARK.json is emitted with its unit, a wrong expected result
is reported as a failed check, and tracing leaves the program unpatched."""

import json
from pathlib import Path

import pytest

import run

workloads, tracing = run.load_program()
import ksets  # noqa: E402  (imported from the checkout by load_program)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

REDUCED = {
    "exhaustive": workloads.Exhaustive(unconnected={1: 0, 2: 2175}, classes=(1,)),
    "survey": workloads.Survey(
        target=5, min_edges=72, sample_edges=(71,), draws=10
    ),
    "corpus": workloads.Corpus(names=("38-19", "42-24", "45-26")),
}


def measure(workload, trace, tmp_path):
    return run.measure(
        workloads,
        tracing,
        workload,
        seed=3,
        seconds=0,
        trace=trace,
        workers=1,
        setup_probes=1,
        out_dir=tmp_path,
    )


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(
        workloads.WORKLOADS
    )


@pytest.mark.parametrize("name", sorted(REDUCED))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(name, trace, tmp_path):
    res = measure(REDUCED[name], trace, tmp_path)
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] > 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_wrong_expected_count_is_a_failure(tmp_path):
    wrong = workloads.Exhaustive(unconnected={1: 0, 2: 2176}, classes=(1,))
    res = measure(wrong, False, tmp_path)
    # the one wrong count fails once in each pass
    assert res["failed"] >= 1
    assert set(res["failures"]) == {"2175 unconnected subsets keep 2 edges, want 2176"}


def test_wrong_loop_size_is_a_failure(tmp_path):
    wrong = workloads.Corpus(names=("42-24",), loop_sizes={"42-24": 12})
    res = measure(wrong, False, tmp_path)
    assert res["failed"] >= 1
    assert any("published 12" in f for f in res["failures"])


def test_extra_archive_line_is_a_failure(tmp_path):
    survey = REDUCED["survey"]
    checks = workloads.Checks()
    raw = survey.run(survey.setup(), workloads.Context(3, 1, tmp_path), checks)
    path = raw["dir"] / "edges-74.mmp"
    text = path.read_text()
    path.write_text(text + text.splitlines()[0] + "\n")
    survey.verify(raw, checks)
    assert "edges-74.mmp: 2 lines, want 1" in checks.failures
    assert not raw["dir"].exists()


def test_tracing_restores_the_program(tmp_path):
    measure(REDUCED["survey"], True, tmp_path)
    assert ksets.survey.is_ks is ksets.coloring.is_ks
    assert ksets.is_connected is ksets.mmp.is_connected
    assert not hasattr(ksets.strip_one_each, "__wrapped__")


def test_self_time_partitions_root_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        list(ksets.strip_one_each([ksets.corpus.load("38-19")], ksets.StripPlan(k=1)))
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics("setup")
    roots = sum(e - s for _, s, e, parent, _, _ in tracer.spans if parent < 0)
    assert m["strip.strip_one_each.yielded"] == 19
    assert m["strip.strip_one_each.unique_ratio"] == 1.0
    assert m["strip.strip_one_each.self_s"] + m["mmp.io.self_s"] == pytest.approx(
        roots
    )


def test_workers_above_nproc_are_refused(capsys):
    argv = ["--workload", "survey", "--seed", "1", "--seconds", "0"]
    assert run.main(argv + ["--workers", str(run.nproc() + 1)]) == 2
    assert "outside 1..nproc" in capsys.readouterr().err
