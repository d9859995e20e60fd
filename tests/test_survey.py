import hashlib
import json
import logging
from multiprocessing.process import BaseProcess
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ksets.canon import dedupe_isomorphic
from ksets.coloring import COLORABLE, CRITICAL, KS, is_critical, is_ks
from ksets.corpus import CORPUS_LINES, load
from ksets.mmp import (
    Hypergraph,
    MmpError,
    hypergraph_from_edges,
    is_connected,
    parse_mmp,
    renormalize,
)
from ksets.strip import SamplerSeed, StripPlan, strip_one_each
from ksets.survey import (
    ConfigError,
    StageResult,
    SurveyConfig,
    calibrate_increment,
    parse_config,
    run_stage,
    run_survey,
)


def test_config_defaults_and_validation():
    cfg = SurveyConfig()
    assert cfg.target == 50000 and cfg.workers == 1
    assert cfg.start is None
    with pytest.raises(ConfigError):
        SurveyConfig(target=0)
    with pytest.raises(ConfigError):
        SurveyConfig(min_edges=76)
    with pytest.raises(ConfigError):
        SurveyConfig(workers=0)
    with pytest.raises(ConfigError):
        SurveyConfig(increment=0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            SurveyConfig(increment=bad)


def test_parse_config(tmp_path):
    (tmp_path / "start.mmp").write_text(CORPUS_LINES["38-19"] + "\n")
    text = (
        "# a comment\n"
        "start = start.mmp\n"
        "target = 1000\n"
        "min-edges = 10  # trailing comment\n"
        "increment = 2.5\n"
        "mode = randomized\n"
        "seed = 7\n"
        "workers = 2\n"
        "out = results\n"
    )
    cfg = parse_config(text, tmp_path)
    assert cfg.start.signature == "38-19"
    assert cfg.target == 1000
    assert cfg.min_edges == 10
    assert cfg.increment == 2.5
    assert cfg.selection_mode == "randomized"
    assert cfg.seed == SamplerSeed(7)
    assert cfg.workers == 2
    assert cfg.output_dir == tmp_path / "results"


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config("no equals sign here")
    with pytest.raises(ConfigError):
        parse_config("target = 5\ntarget = 6\n")
    with pytest.raises(ConfigError):
        parse_config("bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config("target = notanumber\n")
    with pytest.raises(ConfigError):
        parse_config("start = missing.mmp\n", tmp_path)
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(f"increment = {bad}\n")
    assert parse_config("").increment is None  # auto by default


def test_stage_result_monotonicity():
    with pytest.raises(ValueError):
        StageResult(
            edges=10,
            inputs=1,
            children=5,
            connected=6,
            exact_unique=6,
            non_isomorphic=6,
            ks=6,
            criticals_odd=0,
            criticals_even=0,
            seconds=0.0,
        )
    r = StageResult(10, 1, 5, 4, 4, 3, 2, 1, 0, 0.5)
    assert StageResult.from_json(r.to_json()) == r


@pytest.mark.parametrize(
    "name, value",
    [
        ("edges", "73"),
        ("ks", True),
        ("children", 5.5),
        ("inputs", None),
        ("criticals_odd", -1),
        ("seconds", "x"),
        ("seconds", False),
        ("seconds", float("nan")),
    ],
)
def test_stage_record_fields_are_typed(name, value):
    record = StageResult(73, 1, 75, 75, 75, 4, 4, 0, 0, 0.5).__dict__
    line = json.dumps({**record, name: value})
    want = "a finite number" if name == "seconds" else "an int >= 0"
    with pytest.raises(ValueError) as err:
        StageResult.from_json(line)
    assert str(err.value) == f"field {name} must be {want}, got {value!r}"


def test_calibrate_increment():
    h = load("38-19")
    # every single-edge child of a connected critical set stays connected
    assert calibrate_increment([h], 19) == 1.0
    assert calibrate_increment([h], 50000) == 1.0
    assert calibrate_increment([h], 5) == pytest.approx(19 / 5)
    with pytest.raises(ValueError):
        calibrate_increment([], 10)
    with pytest.raises(ValueError):
        calibrate_increment([h], 0)


def test_calibrate_increment_warns_when_no_child_survives(caplog):
    # every one-edge child of three disjoint edges is disconnected
    h = parse_mmp("123,456,789.")
    with caplog.at_level(logging.WARNING, logger="ksets.survey"):
        assert calibrate_increment([h], 5) == 1.0
    assert [rec.message for rec in caplog.records] == [
        "calibration pilot found no surviving children"
    ]


def test_run_survey_resume_and_determinism(tmp_path):
    h = load("42-24")

    def run(d):
        cfg = SurveyConfig(
            start=h, min_edges=21, seed=SamplerSeed(42), output_dir=Path(d)
        )
        results = list(run_survey(cfg))
        files = {
            p.name: p.read_text() for p in sorted(Path(d).glob("*.mmp"))
        }
        return cfg, results, files

    cfg1, res1, files1 = run(tmp_path / "a")
    # criticals strip to colorable children only: no KS at 23 edges
    assert res1[0].edges == 23
    assert res1[0].inputs == 1 and res1[0].ks == 0
    assert res1[0].children >= res1[0].connected >= res1[0].ks

    # resume: loads records from disk, recomputes nothing
    res_resumed = list(run_survey(cfg1))
    assert [r.to_json() for r in res_resumed] == [r.to_json() for r in res1]

    _, res2, files2 = run(tmp_path / "b")
    assert files1 == files2  # identical archives for identical seeds


def test_randomized_survey_is_pinned(tmp_path):
    # the default start is the 60-75, and the stages at 72 and 71 edges
    # thin by Bernoulli draws from the run seed, so this digest pins the
    # seeded streams end to end
    cfg = SurveyConfig(
        target=120,
        min_edges=71,
        selection_mode="randomized",
        seed=SamplerSeed(3),
        output_dir=tmp_path,
    )
    records = [{**r.__dict__, "seconds": None} for r in run_survey(cfg)]
    assert [r["children"] for r in records] == [75, 74, 113, 121]
    digest = hashlib.sha256(json.dumps(records).encode())
    for p in sorted(tmp_path.glob("*.mmp")):
        digest.update(p.name.encode() + p.read_bytes())
    assert digest.hexdigest() == (
        "4928f51f776c078a2a54a4b5f2a45f743cb038e53c46d9f31803973962a7a6a2"
    )


def test_run_survey_writes_stage_files(tmp_path):
    cfg = SurveyConfig(
        start=load("38-19"), min_edges=17, output_dir=tmp_path / "out"
    )
    results = list(run_survey(cfg))
    assert results
    out = tmp_path / "out"
    assert (out / "edges-18.mmp").exists()
    assert (out / "edges-18.criticals.mmp").exists()
    assert (out / "edges-18.json").exists()


def test_stage_classifies_each_representative_within_the_solve_bound(
    h75, monkeypatch
):
    # every solve comes from one classification per class representative;
    # 73-edge children come from the 74-edge input, 18-edge ones (all
    # colorable) from the 38-19
    import ksets.coloring as coloring
    import ksets.survey as survey

    solve = coloring._solve
    solves = []
    per_rep = []
    classify = survey.classify

    def counting_solve(masks, num_vertices, **kwargs):
        solves.append(len(masks))
        return solve(masks, num_vertices, **kwargs)

    def recording(h):
        before = len(solves)
        kind = classify(h)
        per_rep.append((h, kind, len(solves) - before))
        return kind

    monkeypatch.setattr(coloring, "_solve", counting_solve)
    monkeypatch.setattr(survey, "classify", recording)
    inputs = [h75.without_edge(0), load("38-19")]
    result, ks_sets, _ = run_stage(inputs, SurveyConfig(increment=1), 73)
    monkeypatch.undo()

    assert result.non_isomorphic > result.ks > 0
    assert len(per_rep) == result.non_isomorphic
    assert sum(n for _, _, n in per_rep) == len(solves)
    assert [h for h, kind, _ in per_rep if kind != COLORABLE] == ks_sets
    for h, kind, n in per_rep:
        assert n <= 2 + h.num_edges
        # a KS representative whose first removal is KS costs one solve
        if kind == KS and is_ks(h.without_edge(0)):
            assert n == 1
    assert any(kind == KS and n == 1 for _, kind, n in per_rep)


def reference_stage(inputs, edges, increment=1, mode="uniform"):
    """A stage that labels every connected child it keeps, with the plan
    ``run_stage`` makes at seed 0: the record (less ``seconds``), the
    representatives in order, the KS sets and the criticals."""
    plan = StripPlan(
        k=1, increment=increment, selection_mode=mode, seed=SamplerSeed(edges)
    )
    stripped = list(strip_one_each(inputs, plan))
    kept = [h for h in stripped if is_connected(h)]
    reps = list(dedupe_isomorphic(kept))
    ks_sets = [h for h in reps if is_ks(h)]
    criticals = [h for h in ks_sets if is_critical(h)]
    odd = sum(h.num_edges % 2 for h in criticals)
    record = dict(
        edges=edges,
        inputs=len(inputs),
        children=len(stripped),
        connected=len(kept),
        exact_unique=len(kept),
        non_isomorphic=len(reps),
        ks=len(ks_sets),
        criticals_odd=odd,
        criticals_even=len(criticals) - odd,
    )
    return record, reps, ks_sets, criticals


def orbit_stage(inputs, edges, monkeypatch, increment=1, mode="uniform"):
    """``run_stage`` in the shape of ``reference_stage``; the
    representatives are the ones it classifies, in order."""
    import ksets.survey as survey

    reps = []
    classify = survey.classify

    def recording(h):
        reps.append(h)
        return classify(h)

    monkeypatch.setattr(survey, "classify", recording)
    cfg = SurveyConfig(increment=increment, selection_mode=mode)
    result, ks_sets, criticals = run_stage(inputs, cfg, edges)
    monkeypatch.undo()
    record = dict(result.__dict__)
    del record["seconds"]
    return record, reps, ks_sets, criticals


def test_orbit_stages_match_labeling_every_child(h75, monkeypatch):
    inputs = [h75]
    classes = []
    for edges in (74, 73, 72):
        ours = orbit_stage(inputs, edges, monkeypatch)
        assert ours == reference_stage(inputs, edges)
        classes.append(ours[0]["non_isomorphic"])
        inputs = ours[2]
    assert classes == [1, 4, 19]


# copies of one edge give exact duplicate children; a middle edge of a
# chain leaves an unconnected child
TWIN_CHAIN = hypergraph_from_edges(
    [(0, 1, 2), (0, 1, 2), (2, 3, 4), (4, 5, 6)]
)


@st.composite
def stage_inputs(draw):
    """One to three small parents, the first possibly repeated so that
    children of different parents coincide exactly."""
    parents = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        nv = draw(st.integers(min_value=3, max_value=6))
        edge = st.lists(
            st.integers(min_value=0, max_value=nv - 1),
            min_size=2,
            max_size=3,
            unique=True,
        )
        edges = draw(st.lists(edge, min_size=2, max_size=5))
        parents.append(renormalize(hypergraph_from_edges(edges, nv)))
    if draw(st.booleans()):
        parents.append(parents[0])
    return parents


def test_orbit_stage_matches_on_duplicates_and_unconnected(monkeypatch):
    inputs = [TWIN_CHAIN, TWIN_CHAIN]
    ref = reference_stage(inputs, 3)
    assert ref[0]["children"] < 2 * TWIN_CHAIN.num_edges  # exact duplicates
    assert ref[0]["connected"] < ref[0]["children"]
    assert orbit_stage(inputs, 3, monkeypatch) == ref


@settings(max_examples=150, deadline=None)
@given(stage_inputs())
def test_orbit_stage_matches_on_random_parents(inputs):
    with pytest.MonkeyPatch.context() as monkeypatch:
        edges = inputs[0].num_edges - 1
        assert orbit_stage(inputs, edges, monkeypatch) == reference_stage(
            inputs, edges
        )


THINNED = [
    (inc, mode) for inc in (2.5, 9.6) for mode in ("uniform", "randomized")
]


@pytest.fixture(scope="module")
def classes_at_72(h75):
    inputs = [h75]
    for edges in (74, 73, 72):
        inputs = run_stage(inputs, SurveyConfig(increment=1), edges)[1]
    return inputs


@pytest.mark.parametrize("increment, mode", THINNED)
def test_thinned_stages_match_labeling_every_child(
    classes_at_72, monkeypatch, increment, mode
):
    inputs = classes_at_72
    ours = orbit_stage(inputs, 71, monkeypatch, increment, mode)
    assert ours == reference_stage(inputs, 71, increment, mode)
    # more kept children than parents: some parent was labeled for orbits
    assert ours[0]["connected"] > len(inputs) == 19


@settings(max_examples=100, deadline=None)
@given(
    stage_inputs(),
    st.sampled_from([2.5, 9.6]),
    st.sampled_from(["uniform", "randomized"]),
)
def test_thinned_stage_matches_on_random_parents(inputs, increment, mode):
    with pytest.MonkeyPatch.context() as monkeypatch:
        edges = inputs[0].num_edges - 1
        ours = orbit_stage(inputs, edges, monkeypatch, increment, mode)
        assert ours == reference_stage(inputs, edges, increment, mode)


def test_unthinned_stage_labels_the_parent_and_one_child(h75, monkeypatch):
    # the 60-75's 75 edges form one orbit: label it, then the child that
    # strips edge 0, where labeling every child took 75 searches
    from ksets.canon import _CanonSearch

    searched = []
    run = _CanonSearch.run

    def counting_run(self):
        searched.append(self.h.num_edges)
        return run(self)

    monkeypatch.setattr(_CanonSearch, "run", counting_run)
    result, ks_sets, _ = run_stage([h75], SurveyConfig(increment=1), 74)
    assert searched == [75, 74]
    assert (result.children, result.non_isomorphic) == (75, 1)
    assert ks_sets == [renormalize(h75.without_edge(0))]


@pytest.mark.parametrize("mode", ["uniform", "randomized"])
def test_thinned_stage_labels_the_parent_and_one_child(h75, monkeypatch, mode):
    # the children a thinned stage keeps from the 60-75 all lie in its one
    # edge orbit: label the parent, then the first kept child
    from ksets.canon import _CanonSearch

    searched = []
    run = _CanonSearch.run

    def counting_run(self):
        searched.append(self.h.num_edges)
        return run(self)

    monkeypatch.setattr(_CanonSearch, "run", counting_run)
    cfg = SurveyConfig(increment=2.5, selection_mode=mode)
    result, _, _ = run_stage([h75], cfg, 74)
    assert searched == [75, 74]
    assert result.connected > 1 and result.non_isomorphic == 1


def test_classify_separates_colorable_ks_and_critical(h75):
    from ksets.survey import classify

    critical = load("38-19")
    assert classify(critical.without_edge(0)) == COLORABLE
    assert classify(h75) == KS
    assert classify(critical) == CRITICAL


def test_stage_archives_the_criticals_among_its_children():
    # the 38-19 plus a copy of its first edge: dropping either copy leaves
    # the critical 38-19, dropping any other edge a colorable set
    h = load("38-19")
    twin = Hypergraph(h.num_vertices, h.edges + h.edges[:1])
    cfg = SurveyConfig(increment=1)
    result, ks_sets, criticals = run_stage([twin], cfg, 19)
    assert [c.signature for c in criticals] == ["38-19"]
    assert (result.criticals_odd, result.criticals_even) == (1, 0)
    assert ks_sets == criticals and result.non_isomorphic > 1


def test_novel_signature_flagging(tmp_path, caplog):
    from ksets.mmp import parse_mmp

    # a tiny artificial critical set far outside the known signature
    # window, plus a copy of its first edge so a stage can find it
    tiny = parse_mmp("12,13,23.")
    twin = Hypergraph(tiny.num_vertices, tiny.edges + tiny.edges[:1])
    cfg = SurveyConfig(
        start=twin, increment=1, min_edges=3, output_dir=tmp_path
    )
    with caplog.at_level(logging.WARNING, logger="ksets.survey"):
        list(run_survey(cfg))
    assert any("new kind" in rec.message for rec in caplog.records)
    assert (tmp_path / "edges-03.criticals.mmp").read_text() == "12,32,13.\n"


def test_torn_stage_write_resumes_cleanly(tmp_path, monkeypatch):
    def config(d):
        return SurveyConfig(start=load("38-19"), min_edges=17, output_dir=d)

    real_write = Path.write_text

    def torn_write(self, text, *args, **kwargs):
        # the stage record's write dies half-way, as on a crash or full disk
        if self.name.startswith("edges-") and ".json" in self.name:
            real_write(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("simulated crash mid-write")
        return real_write(self, text, *args, **kwargs)

    out = tmp_path / "torn"
    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError):
        list(run_survey(config(out)))
    monkeypatch.undo()
    assert sorted(p.name for p in out.glob("*.json*")) == []

    resumed = list(run_survey(config(out)))
    clean = list(run_survey(config(tmp_path / "clean")))

    def record(r):
        return {**r.__dict__, "seconds": None}

    assert [record(r) for r in resumed] == [record(r) for r in clean]
    got = {p.name: p.read_text() for p in out.iterdir()}
    want = {p.name: p.read_text() for p in (tmp_path / "clean").iterdir()}
    assert got.keys() == want.keys()  # no temp files left behind
    assert {k: v for k, v in got.items() if k.endswith(".mmp")} == {
        k: v for k, v in want.items() if k.endswith(".mmp")
    }


def test_unknown_mode_is_a_config_error():
    with pytest.raises(ConfigError, match="mode"):
        SurveyConfig(selection_mode="bogus")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config("mode = bogus\n")


def test_invalid_start_file_is_a_config_error(tmp_path):
    (tmp_path / "start.mmp").write_text("12,23.\n")
    with pytest.raises(ConfigError) as err:
        parse_config("start = start.mmp\n", tmp_path)
    assert str(err.value).startswith(
        f"{tmp_path / 'start.mmp'}:1: edge 0 has 2 vertices"
    )


def test_resumed_archive_is_validated(tmp_path):
    cfg = SurveyConfig(
        start=load("38-19"), min_edges=17, output_dir=tmp_path / "out"
    )
    list(run_survey(cfg))
    archive = tmp_path / "out" / "edges-18.mmp"
    archive.write_text("123,345,561.\n12,23.\n")
    with pytest.raises(MmpError, match=r"edges-18\.mmp:2: edge 0 has 2"):
        list(run_survey(cfg))
    # archives are read strictly: the lenient missing '.' is refused too
    archive.write_text("123,345,561\n")
    with pytest.raises(MmpError, match=r"edges-18\.mmp:1: missing final"):
        list(run_survey(cfg))


def test_resumed_record_with_an_undecodable_byte_names_its_line(tmp_path):
    cfg = SurveyConfig(increment=1, min_edges=73, output_dir=tmp_path)
    list(run_survey(cfg))
    record = tmp_path / "edges-73.json"
    record.write_bytes(record.read_bytes() + b"\xff")
    with pytest.raises(ValueError) as err:
        list(run_survey(cfg))
    assert str(err.value).startswith(
        f"{record}: not JSON: Extra data: line 2 column 1 "
    )


def test_resumed_record_must_follow_the_stage_before_it(tmp_path):
    cfg = SurveyConfig(increment=1, min_edges=72, output_dir=tmp_path)
    assert [r.inputs for r in run_survey(cfg)] == [1, 1, 4]
    record = tmp_path / "edges-72.json"
    record.write_text(record.read_text().replace('"inputs": 4', '"inputs": 9'))
    with pytest.raises(ValueError) as err:
        list(run_survey(cfg))
    assert str(err.value) == (
        f"{record}: inputs 9 disagrees with the 4 survivors of the stage "
        "before it"
    )


@pytest.mark.parametrize("name", ["edges-73.mmp", "edges-73.criticals.mmp"])
def test_resumed_archive_lines_must_have_the_stage_edge_count(tmp_path, name):
    cfg = SurveyConfig(increment=1, min_edges=72, output_dir=tmp_path)
    list(run_survey(cfg))
    # four 72-edge sets where the four 73-edge survivors belong
    sets72 = (tmp_path / "edges-72.mmp").read_text().splitlines()[:4]
    archive = tmp_path / name
    archive.write_text("\n".join(sets72) + "\n")
    if name == "edges-73.criticals.mmp":
        # a record that counts them, so only their edge count is wrong
        record = tmp_path / "edges-73.json"
        old, new = '"criticals_odd": 0', '"criticals_odd": 4'
        record.write_text(record.read_text().replace(old, new))
    with pytest.raises(ValueError) as err:
        list(run_survey(cfg))
    assert str(err.value) == f"{archive}: a set of 72 edges in a stage of 73"


def test_min_edges_must_be_below_the_start_edge_count(tmp_path):
    h = load("38-19")
    assert SurveyConfig(start=h, min_edges=18).min_edges == 18
    assert SurveyConfig(min_edges=74).min_edges == 74
    for bad in (19, 30, -1):
        with pytest.raises(ConfigError, match="19 edges"):
            SurveyConfig(start=h, min_edges=bad)
    # the default start is the 600-cell's 60-75
    for bad in (75, 76):
        with pytest.raises(ConfigError, match="75 edges"):
            SurveyConfig(min_edges=bad)
    (tmp_path / "start.mmp").write_text(CORPUS_LINES["38-19"] + "\n")
    with pytest.raises(ConfigError, match=r"\[0, 18\].*got 30"):
        parse_config("start = start.mmp\nmin-edges = 30\n", tmp_path)


def _no_process(self):
    raise AssertionError(f"started a process: {self!r}")


def test_results_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    monkeypatch.setattr(BaseProcess, "start", _no_process)

    def run(workers):
        out = tmp_path / f"w{workers}"
        cfg = SurveyConfig(
            target=120,
            min_edges=70,
            seed=SamplerSeed(1),
            workers=workers,
            output_dir=out,
        )
        records = [{**r.__dict__, "seconds": None} for r in run_survey(cfg)]
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*.mmp"))}
        return records, files

    serial = run(1)
    assert run(2) == serial
    assert run(10**6) == serial
    # stages 71 and 70 keep enough classes that a per-stage process pool
    # would have classified them
    classes = {r["edges"]: r["non_isomorphic"] for r in serial[0]}
    assert classes[71] == 75 and classes[70] == 73
    assert len(serial[1]) == 10  # survivors and criticals, 74 down to 70


def test_stage_starts_no_process_at_any_worker_count(
    classes_at_72, monkeypatch
):
    serial = run_stage(classes_at_72, SurveyConfig(increment=1), 71)
    monkeypatch.setattr(BaseProcess, "start", _no_process)
    cfg = SurveyConfig(increment=1, workers=10**6)
    record, survivors, criticals = run_stage(classes_at_72, cfg, 71)
    # as many classes as the removed per-stage pool needed to start
    assert record.non_isomorphic >= 64
    assert (survivors, criticals) == serial[1:]
    assert {**record.__dict__, "seconds": None} == {
        **serial[0].__dict__,
        "seconds": None,
    }
