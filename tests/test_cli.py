import pytest
from click.testing import CliRunner

from ksets import canon
from ksets.canon import canonical_form
from ksets.cli import main
from ksets.corpus import CORPUS_LINES
from ksets.mmp import parse_mmp, read_mmp_file
from ksets.survey import StageResult


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def test_cell600_and_strip(tmp_path):
    cell = tmp_path / "cell.mmp"
    vecs = tmp_path / "vecs.txt"
    res = invoke("cell600", "--out-mmp", str(cell), "--out-vectors", str(vecs))
    assert res.exit_code == 0
    assert cell.read_text().count(",") == 74
    assert len(vecs.read_text().splitlines()) == 60

    out = tmp_path / "two.mmp"
    res = invoke(
        "strip", "--in", str(cell), "--k", "73", "--connected-only",
        "--renormalize", "--out", str(out),
    )
    assert res.exit_code == 0
    assert "600 subsets" in res.output


def test_strip_window(tmp_path):
    src = tmp_path / "in.mmp"
    src.write_text("123,345,561,246.\n")
    out = tmp_path / "out.mmp"
    res = invoke(
        "strip", "--in", str(src), "--k", "2", "--window", "0:3",
        "--out", str(out),
    )
    assert res.exit_code == 0
    assert len(out.read_text().splitlines()) == 3
    res = invoke(
        "strip", "--in", str(src), "--k", "2", "--window", "junk",
        "--out", str(out),
    )
    assert res.exit_code != 0


def test_color_and_critical(tmp_path):
    src = tmp_path / "in.mmp"
    src.write_text("123,345,561.\n" + CORPUS_LINES["38-19"] + "\n")
    col, ks = tmp_path / "col.mmp", tmp_path / "ks.mmp"
    res = invoke(
        "color", "--in", str(src), "--out-colorable", str(col),
        "--out-ks", str(ks), "--witness",
    )
    assert res.exit_code == 0
    assert "1 colorable, 1 KS" in res.output
    # the witness goes to stdout by input index; both files stay pure MMP
    assert "0: ones=" in res.output
    assert read_mmp_file(col) == [parse_mmp("123,345,561.")]
    assert read_mmp_file(ks) == [parse_mmp(CORPUS_LINES["38-19"])]

    crit = tmp_path / "crit.mmp"
    res = invoke("critical", "--in", str(src), "--out", str(crit))
    assert "1 of 2" in res.output
    assert crit.read_text().strip() == CORPUS_LINES["38-19"]


def test_canon(tmp_path):
    src = tmp_path / "in.mmp"
    src.write_text("123,345,561.\n234,456,612.\n1234.\n")
    out = tmp_path / "canon.mmp"
    res = invoke("canon", "--in", str(src), "--out", str(out), "--mapping")
    assert res.exit_code == 0
    assert "3 inputs, 2 isomorphism classes" in res.output
    assert "->" in res.output


def test_canon_mapping_labels_each_input_once(tmp_path, monkeypatch):
    runs = []
    search = canon._CanonSearch.run

    def counted(self):
        runs.append(self.h)
        return search(self)

    monkeypatch.setattr(canon._CanonSearch, "run", counted)
    src = tmp_path / "in.mmp"
    src.write_text("123,345,561.\n1234.\n")
    res = invoke(
        "canon", "--in", str(src), "--out", str(tmp_path / "c.mmp"),
        "--mapping",
    )
    assert "2 inputs, 2 isomorphism classes" in res.output
    assert "# 1: 1->" in res.output
    assert len(runs) == 2


def test_loops_command(tmp_path):
    src = tmp_path / "in.mmp"
    src.write_text("123,345,561.\n")
    draws = tmp_path / "draws"
    res = invoke(
        "loops", "--in", str(src), "--all-max", "--draw", str(draws),
        "--backend", "svg",
    )
    assert res.exit_code == 0
    assert "(3-gon)" in res.output
    assert "arrangement 0" in res.output
    files = list(draws.glob("*.svg"))
    assert len(files) == 1


def test_stats_commands(tmp_path):
    res = invoke("stats", "coupon", "--n", "545961", "--c", "516604")
    assert res.output.strip() == "4893025"
    res = invoke("stats", "coupon", "--n", "1", "--c", "1")
    assert "unbounded" in res.output

    res = invoke(
        "stats", "bounds", "--K", "9e15", "--n", "52800000", "--m", "580"
    )
    assert "upper 1.07" in res.output

    recs = tmp_path / "r.jsonl"
    recs.write_text(
        '{"edges": 74, "total": "75", "non_isomorphic": 1.0}\n'
        '{"edges": 73, "total": "2775", "non_isomorphic": 4.0}\n'
    )
    table = tmp_path / "table.txt"
    res = invoke("stats", "aggregate", "--in", str(recs), "--out", str(table))
    assert res.exit_code == 0
    assert table.exists()
    assert table.with_suffix(".plot.json").exists()
    assert "2775" in table.read_text()


def aggregate_error(tmp_path, text, name="r.jsonl"):
    """Run ``stats aggregate`` on ``text`` expecting a clean exit 1;
    returns its one-line message."""
    recs = tmp_path / name
    recs.write_text(text)
    out = tmp_path / "t.txt"
    res = CliRunner().invoke(
        main, ["stats", "aggregate", "--in", str(recs), "--out", str(out)]
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    lines = res.output.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


def test_aggregate_rejects_a_survey_stage_record(tmp_path):
    stage = StageResult(70, 73, 73, 73, 73, 73, 73, 0, 0, 1.5)
    msg = aggregate_error(tmp_path, stage.to_json() + "\n", "edges-70.json")
    path = tmp_path / "edges-70.json"
    assert msg == f"Error: {path}:1: missing field 'total'"


def test_aggregate_rejects_a_non_json_line(tmp_path):
    msg = aggregate_error(tmp_path, '{"edges": 74, "total": "75"}\nedges 73\n')
    assert msg.startswith(f"Error: {tmp_path / 'r.jsonl'}:2: not JSON: ")


def test_aggregate_rejects_two_records_for_one_edge_count(tmp_path):
    msg = aggregate_error(
        tmp_path,
        '{"edges": 74, "total": "75"}\n\n{"edges": 74, "total": "75"}\n',
    )
    assert msg == (
        f"Error: {tmp_path / 'r.jsonl'}:3: second record for 74 edges "
        "(first on line 1)"
    )


def usage_error(*args):
    """Invoke expecting a usage error; returns its one-line message."""
    res = CliRunner().invoke(main, list(args))
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    return res.output.strip().splitlines()[-1]


def test_strip_k_above_edge_count(tmp_path):
    src = tmp_path / "in.mmp"
    src.write_text("123,345,561.\n")
    msg = usage_error(
        "strip", "--in", str(src), "--k", "9", "--out", str(tmp_path / "o")
    )
    assert "'--k'" in msg and "cannot remove 9 of the 3 edges" in msg


def test_strip_reversed_window(tmp_path):
    src = tmp_path / "in.mmp"
    src.write_text("123,345,561.\n")
    msg = usage_error(
        "strip", "--in", str(src), "--k", "1", "--window", "3:1",
        "--out", str(tmp_path / "o"),
    )
    assert "'--window'" in msg
    # a start past the last of the C(3, 1) subsets
    msg = usage_error(
        "strip", "--in", str(src), "--k", "1", "--window", "5:9",
        "--out", str(tmp_path / "o"),
    )
    assert "'--window'" in msg and "past the 3 subsets" in msg


def test_strip_non_finite_increment(tmp_path):
    # nan passes every range bound, and inf keeps no subset
    src = tmp_path / "in.mmp"
    src.write_text("123,345,561.\n")
    for bad in ("nan", "inf"):
        msg = usage_error(
            "strip", "--in", str(src), "--k", "1", "--increment", bad,
            "--out", str(tmp_path / "o"),
        )
        assert "'--increment'" in msg and "not a finite number" in msg
    assert not (tmp_path / "o").exists()


def test_bounds_arguments_out_of_range():
    cases = {
        "--n": ["--K", "100", "--n", "0", "--m", "0"],
        "--m": ["--K", "100", "--n", "5", "--m", "7"],
        "--K": ["--K", "0", "--n", "5", "--m", "2"],
        "--level": ["--K", "100", "--n", "5", "--m", "2", "--level", "1"],
    }
    for option, args in cases.items():
        assert f"'{option}'" in usage_error("stats", "bounds", *args)
    for level in ("0", "-0.5", "nan"):
        msg = usage_error(
            "stats", "bounds", "--K", "100", "--n", "5", "--m", "2",
            "--level", level,
        )
        assert "'--level'" in msg
    msg = usage_error("stats", "bounds", "--K", "-3", "--n", "5", "--m", "2")
    assert "'--K'" in msg


def test_loops_layout_parameters_must_be_positive(tmp_path):
    src = tmp_path / "in.mmp"
    src.write_text("123,345,561.\n")
    for option in ("--tension", "--curl"):
        for bad in ("0", "-1", "nan"):
            msg = usage_error("loops", "--in", str(src), option, bad)
            assert f"'{option}'" in msg


def test_coupon_more_classes_than_samples():
    msg = usage_error("stats", "coupon", "--n", "3", "--c", "5")
    assert "'--c'" in msg


def test_coupon_digits_below_floor():
    msg = usage_error(
        "stats", "coupon", "--n", "3", "--c", "2", "--digits", "10"
    )
    assert "'--digits'" in msg


def test_invalid_mmp_input_is_rejected(tmp_path):
    src = tmp_path / "in.mmp"
    src.write_text("123,345,561.\n\n12,23.\n")
    res = CliRunner().invoke(
        main,
        ["color", "--in", str(src), "--out-colorable", str(tmp_path / "c"),
         "--out-ks", str(tmp_path / "k")],
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"{src}:3: edge 0 has 2 vertices" in res.output
    assert "colorable" not in res.output


def test_published_lenient_line_still_loads(tmp_path):
    src = tmp_path / "in.mmp"
    src.write_text(CORPUS_LINES["60-40"] + "\n")
    out = tmp_path / "crit.mmp"
    res = invoke("critical", "--in", str(src), "--out", str(out))
    assert "1 of 1 inputs are critical" in res.output


def test_survey_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    res = CliRunner().invoke(main, ["survey", "--config", str(bad)])
    assert res.exit_code == 1

    start = tmp_path / "start.mmp"
    start.write_text(CORPUS_LINES["38-19"] + "\n")
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(f"start = start.mmp\nmin-edges = 17\nout = sv\n")
    res = CliRunner().invoke(main, ["survey", "--config", str(cfg)])
    assert res.exit_code == 0
    assert "edges 18" in res.output
    assert (tmp_path / "sv" / "edges-18.json").exists()


def test_survey_non_finite_increment_is_a_config_error(tmp_path):
    # nan once passed the ">= 1" check and kept no child at 74 edges, so
    # the run ended with exit 0
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("increment = nan\nmin-edges = 73\nout = sv\n")
    res = CliRunner().invoke(main, ["survey", "--config", str(cfg)])
    assert res.exit_code == 1
    assert "finite" in res.output
    assert not (tmp_path / "sv").exists()


def test_survey_that_can_run_no_stage_is_a_config_error(tmp_path):
    start = tmp_path / "start.mmp"
    start.write_text(CORPUS_LINES["38-19"] + "\n")
    cfg = tmp_path / "low.cfg"
    cfg.write_text("start = start.mmp\nmin-edges = 30\nout = sv\n")
    res = CliRunner().invoke(main, ["survey", "--config", str(cfg)])
    assert res.exit_code == 1
    assert "config error: min-edges must lie within [0, 18]" in res.output
    assert not (tmp_path / "sv").exists()


def test_canon_writes_canonical_forms(tmp_path):
    src = tmp_path / "in.mmp"
    src.write_text("345,561,123.\n123,345,561.\n1234.\n")
    out = tmp_path / "canon.mmp"
    res = invoke("canon", "--in", str(src), "--out", str(out))
    assert "3 inputs, 2 isomorphism classes" in res.output
    # the class representative is the canonical form, not an input line
    triangle = canonical_form(parse_mmp("123,345,561.")).text
    assert triangle not in src.read_text()
    assert out.read_text() == f"{triangle}\n1234.\n"


def test_survey_rejects_bad_start_and_mode(tmp_path):
    start = tmp_path / "start.mmp"
    start.write_text("12,23.\n")
    cfg = tmp_path / "bad-start.cfg"
    cfg.write_text("start = start.mmp\n")
    res = CliRunner().invoke(main, ["survey", "--config", str(cfg)])
    assert res.exit_code == 1
    assert f"{start}:1: edge 0 has 2 vertices" in res.output

    cfg = tmp_path / "bad-mode.cfg"
    cfg.write_text("mode = bogus\nout = sv\n")
    res = CliRunner().invoke(main, ["survey", "--config", str(cfg)])
    assert res.exit_code == 1
    assert "config error" in res.output and "bogus" in res.output
    assert not (tmp_path / "sv").exists()


@pytest.mark.parametrize(
    "record, problem",
    [
        ('{"children": 19, "conn', "not JSON: "),
        ('{"edges": 18, "inputs": 1}', "missing fields children, connected"),
        ("edges-17", "record for 17 edges"),
    ],
)
def test_resume_over_a_broken_stage_record_names_the_file(
    tmp_path, record, problem
):
    start = tmp_path / "start.mmp"
    start.write_text(CORPUS_LINES["38-19"] + "\n")
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("start = start.mmp\nmin-edges = 17\nout = sv\n")
    survey = ["survey", "--config", str(cfg)]
    assert CliRunner().invoke(main, survey).exit_code == 0
    path = tmp_path / "sv" / "edges-18.json"
    if record == "edges-17":
        record = path.read_text().replace('"edges": 18', '"edges": 17')
    path.write_text(record)
    res = CliRunner().invoke(main, survey)
    assert res.exit_code == 2
    assert f"runtime error: {path}: {problem}" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "old, new, problem",
    [
        ('"edges": 73', '"edges": "73"', "field edges must be an int >= 0"),
        ('"ks": 4', '"ks": 2', "ks 2 disagrees with the 4 lines of edges-73"),
    ],
)
def test_resume_refuses_a_mistyped_or_mismatched_record(
    tmp_path, old, new, problem
):
    cfg = tmp_path / "exact.cfg"
    cfg.write_text("increment = 1\nmin-edges = 73\nout = sv\n")
    survey = ["survey", "--config", str(cfg)]
    assert CliRunner().invoke(main, survey).exit_code == 0
    path = tmp_path / "sv" / "edges-73.json"
    path.write_text(path.read_text().replace(old, new))
    res = CliRunner().invoke(main, survey)
    assert res.exit_code == 2
    assert f"runtime error: {path}: {problem}" in res.output
    assert "Traceback" not in res.output
