from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowmatch import cli
from rainbowmatch.cli import _eval_options, build_parser, main
from rainbowmatch.construct import PeelStrategy, construct
from rainbowmatch.graph import canonical_digest, from_json, read_instances, to_canonical_json
from rainbowmatch.harness import EvalOptions, Hypothesis
from rainbowmatch.reduction import DEFAULT_POLICY, PivotDonorPolicy


def run(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return main(argv)


def test_gen_writes_instances(tmp_path):
    out = tmp_path / "batch.jsonl"
    code = main([
        "gen", "--kind", "random", "--n", "3", "--left", "4", "--right", "4",
        "--seed", "5", "--count", "3", "--out", str(out),
    ])
    assert code == 0
    graphs = list(read_instances(out.read_text().splitlines()))
    assert len(graphs) == 3
    assert all(g.n == 3 for g in graphs)


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--kind", "random", "--n", "2", "--left", "4", "--right", "3",
            "--seed", "9", "--count", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_enumerate_capped(tmp_path):
    out = tmp_path / "enum.jsonl"
    assert main(["gen", "--kind", "enumerate", "--n", "2", "--count", "100",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 36


def test_gen_latin(tmp_path):
    out = tmp_path / "latin.jsonl"
    # --n and --right may restate the order.
    assert main(["gen", "--kind", "latin", "--order", "4", "--n", "3", "--right", "4",
                 "--seed", "1", "--out", str(out)]) == 0
    g = from_json(out.read_text())
    assert g.n == 3 and g.left_size == 4


def test_validate_ok_and_exit_codes(tmp_path, capsys):
    inst = tmp_path / "good.json"
    assert main(["gen", "--kind", "random", "--n", "2", "--left", "3", "--right", "3",
                 "--seed", "0", "--out", str(inst)]) == 0
    assert main(["validate", "--in", str(inst)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]

    bad = tmp_path / "bad.json"
    bad.write_text('{"n":1,"left":2,"right":2,"edges":[[0,0,0],[0,1,0]]}')
    assert main(["validate", "--in", str(bad)]) == 2


def test_validate_output_is_bounded_by_the_input(capsys, monkeypatch):
    text = '{"n":5000,"left":1,"right":1,"edges":[]}'
    assert run(["validate", "--format", "summary"], text, monkeypatch) == 2
    digest = canonical_digest(from_json(text))
    assert capsys.readouterr().out == (
        f"{digest} 5000 colors have 0 edges, expected 5001 (lowest: color 0)\n"
    )


def test_validate_malformed_input(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all")
    assert main(["validate", "--in", str(garbage)]) == 2


def test_solve(tmp_path, capsys):
    inst = tmp_path / "i.json"
    main(["gen", "--kind", "latin", "--order", "4", "--seed", "0", "--out", str(inst)])
    assert main(["solve", "--in", str(inst)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max"] == 3
    assert len(out["witness"]) == 3
    assert main(["solve", "--in", str(inst), "--target", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["found"] is False


def test_shift_graph_emit(tmp_path, capsys, monkeypatch):
    text = '{"n":1,"left":2,"right":2,"edges":[[1,0,0]]}'
    assert run(["shift", "--pivot", "0", "--donor", "1"], text, monkeypatch) == 0
    g = from_json(capsys.readouterr().out)
    assert [list(e) for e in g.edges] == [[0, 0, 0]]


def test_shift_record_emit(tmp_path, capsys, monkeypatch):
    text = '{"n":1,"left":2,"right":2,"edges":[[0,0,0],[1,1,0]]}'
    assert run(["shift", "--pivot", "0", "--donor", "1", "--emit", "record"],
               text, monkeypatch) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["swaps"] == 1 and rec["moves"] == 0
    assert rec["rewrites"][0]["kind"] == "swap"


def test_shift_right_side(capsys, monkeypatch):
    # mirror of the move golden: donor on the right side
    text = '{"n":1,"left":2,"right":2,"edges":[[0,1,0]]}'
    assert run(["shift", "--pivot", "0", "--donor", "1", "--side", "right"],
               text, monkeypatch) == 0
    g = from_json(capsys.readouterr().out)
    assert [list(e) for e in g.edges] == [[0, 0, 0]]


def test_shift_bad_pivot(capsys, monkeypatch):
    text = '{"n":1,"left":2,"right":2,"edges":[[0,0,0]]}'
    assert run(["shift", "--pivot", "0", "--donor", "0"], text, monkeypatch) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n":1,"left":2,"right":2,"edges":[[0,0,0],[1,0,0]]}', "share right vertex 0"),
        ('{"n":1,"left":2,"right":2,"edges":[[1,5,0]]}', "edge (1, 5, 0)"),
    ],
    ids=["improper", "out-of-bounds"],
)
def test_shift_right_side_errors_name_input_coordinates(capsys, monkeypatch, text, message):
    argv = ["shift", "--side", "right", "--pivot", "0", "--donor", "1"]
    assert run(argv, text, monkeypatch) == 2
    assert message in capsys.readouterr().err


def test_reduce_pipeline(tmp_path, capsys):
    inst = tmp_path / "wide.json"
    main(["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
          "--seed", "0", "--out", str(inst)])
    assert main(["reduce", "--in", str(inst)]) == 0
    g = from_json(capsys.readouterr().out)
    assert g.left_size == 4 and g.right_size == 4


def test_reduce_stall_exit_code(tmp_path, capsys):
    inst = tmp_path / "cycle.json"
    main(["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
          "--seed", "17", "--out", str(inst)])
    assert main(["reduce", "--in", str(inst), "--emit", "record"]) == 3
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "stalled"
    assert rec["trace"]


def test_shift_trace_file(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "rewrites.jsonl"
    text = '{"n":1,"left":2,"right":2,"edges":[[1,0,0]]}'
    assert run(["shift", "--pivot", "0", "--donor", "1", "--trace", str(trace)],
               text, monkeypatch) == 0
    capsys.readouterr()
    rewrites = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [(r.pop("index"), r.pop("digest")) for r in rewrites] == [
        (0, canonical_digest(from_json(text)))
    ]
    assert rewrites == [
        {"kind": "move", "color": 0, "removed": [[1, 0, 0]], "added": [[0, 0, 0]]}
    ]


def test_reduce_trace_file(tmp_path, capsys):
    inst = tmp_path / "wide.json"
    trace = tmp_path / "steps.jsonl"
    main(["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
          "--seed", "0", "--out", str(inst)])
    assert main(["reduce", "--in", str(inst), "--emit", "record",
                 "--trace", str(trace)]) == 0
    rec = json.loads(capsys.readouterr().out)
    steps = [json.loads(line) for line in trace.read_text().splitlines()]
    assert {(s.pop("index"), s.pop("digest")) for s in steps} == {(0, rec["digest_before"])}
    assert steps == rec["trace"]
    assert all(s["side"] in ("left", "right") for s in steps)


@pytest.mark.parametrize(
    "argv, key",
    [
        (["shift", "--pivot", "0", "--donor", "5", "--emit", "record"], "rewrites"),
        (["reduce", "--emit", "record"], "trace"),
    ],
    ids=["shift", "reduce"],
)
def test_trace_file_splits_per_instance(tmp_path, capsys, monkeypatch, argv, key):
    trace = tmp_path / "trace.jsonl"
    assert main(["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
                 "--seed", "0", "--count", "2"]) == 0
    stream = capsys.readouterr().out
    assert run(argv + ["--trace", str(trace)], stream, monkeypatch) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    groups: dict[int, list[dict]] = {}
    for entry in map(json.loads, trace.read_text().splitlines()):
        index = entry.pop("index")
        assert entry.pop("digest") == records[index]["digest_before"]
        groups.setdefault(index, []).append(entry)
    assert sorted(groups) == [0, 1]
    assert [groups[i] for i in (0, 1)] == [rec[key] for rec in records]


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_output_naming_the_input_is_refused(tmp_path, capsys, flag):
    inst = tmp_path / "i.jsonl"
    assert main(["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
                 "--count", "3", "--out", str(inst)]) == 0
    before = inst.read_bytes()
    assert main(["reduce", "--in", str(inst), flag, str(inst)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert inst.read_bytes() == before


@pytest.mark.parametrize("command", [["reduce"], ["shift", "--pivot", "0", "--donor", "1"]],
                         ids=["reduce", "shift"])
def test_out_and_trace_naming_one_file_are_refused(tmp_path, capsys, monkeypatch, command):
    # The outputs and the trace entries would interleave in one file.
    # Refused before either is opened, however the path is spelled.
    monkeypatch.chdir(tmp_path)
    inst, both = tmp_path / "i.jsonl", tmp_path / "both.jsonl"
    assert main(["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
                 "--count", "3", "--out", str(inst)]) == 0
    both.write_text("kept\n")
    argv = [*command, "--in", str(inst), "--out", "both.jsonl", "--trace", "./both.jsonl"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --out and --trace both name ./both.jsonl\n"
    assert both.read_text() == "kept\n"


def test_solve_answers_each_instance_before_reading_the_next(capsys, monkeypatch):
    good = '{"n":1,"left":2,"right":2,"edges":[[0,0,0],[1,1,0]]}'
    assert run(["solve"], good + "\n", monkeypatch) == 0
    first = capsys.readouterr().out
    assert run(["solve"], good + "\nnot json\n", monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.out == first
    assert captured.err.startswith("error: line 2: not valid JSON")


def test_solve_many_empty_colors(capsys, monkeypatch):
    text = '{"n":5000,"left":1,"right":1,"edges":[]}'
    assert run(["solve"], text, monkeypatch) == 0
    assert json.loads(capsys.readouterr().out)["max"] == 0


@pytest.mark.parametrize("n", [1000, 5000])
def test_solve_many_nonempty_colors(capsys, monkeypatch, n):
    # The search nests one level per non-empty color class.
    edges = [[i, i, i] for i in range(n)]
    text = json.dumps({"n": n, "left": n, "right": n, "edges": edges})
    limit = sys.getrecursionlimit()
    assert run(["solve"], text, monkeypatch) == 0
    assert json.loads(capsys.readouterr().out)["max"] == n
    assert sys.getrecursionlimit() == limit


def test_construct_latin(tmp_path, capsys):
    inst = tmp_path / "l4.json"
    main(["gen", "--kind", "latin", "--order", "4", "--seed", "3", "--out", str(inst)])
    assert main(["construct", "--in", str(inst), "--strategy", "backtrack"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "matched"
    assert len(rec["matching"]) == 3


HUGE = 10**11


def test_solve_answers_at_a_huge_vertex_index(capsys, monkeypatch):
    text = json.dumps({"n": 1, "left": HUGE, "right": 2, "edges": [[HUGE - 1, 0, 0], [0, 1, 0]]})
    assert run(["solve"], text, monkeypatch) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max"] == 1
    assert out["witness"] == [[HUGE - 1, 0, 0]]


@pytest.mark.parametrize("strategy", [s.value for s in PeelStrategy])
def test_construct_answers_at_a_huge_vertex_index(tmp_path, capsys, monkeypatch, strategy):
    # The Latin instance of test_construct_latin with right vertex 3 relabeled.
    inst = tmp_path / "l4.json"
    main(["gen", "--kind", "latin", "--order", "4", "--seed", "3", "--out", str(inst)])
    d = json.loads(inst.read_text())
    d["right"] = HUGE + 1
    d["edges"] = [[u, HUGE if v == 3 else v, c] for u, v, c in d["edges"]]
    capsys.readouterr()
    assert run(["construct", "--strategy", strategy], json.dumps(d), monkeypatch) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "matched"
    assert sorted(v for _, v, _ in rec["matching"]) == [0, 2, HUGE]


def test_construct_failure_exit_code(tmp_path, capsys):
    inst = tmp_path / "hard.json"
    main(["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
          "--seed", "1", "--out", str(inst)])
    assert main(["construct", "--in", str(inst), "--strategy", "backtrack"]) == 3
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "step_failed"
    assert rec["failure"]["reason"] == "count_deficit"
    assert rec["candidate"] is not None


def test_check_and_replay(tmp_path, capsys):
    records = tmp_path / "rec.jsonl"
    code = main([
        "check", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
        "--seed", "0", "--count", "25", "--hyp", "H2", "--hyp", "H3",
        "--records", str(records), "--format", "summary",
    ])
    assert code == 0  # violations are findings, not failures
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("H2:") and lines[1].startswith("H3:")
    assert "violated=" in lines[0] and "violated=0" not in lines[0]
    assert main(["replay", "--in", str(records)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["mismatches"] == []
    assert rep["violated"] > 0


def test_check_clean_exit(tmp_path, capsys):
    code = main([
        "check", "--kind", "enumerate", "--n", "2", "--hyp", "CONJ",
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 36 and summary["holds"] == 36


def test_replay_tampered_exit(tmp_path, capsys):
    records = tmp_path / "rec.jsonl"
    main(["check", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
          "--seed", "0", "--count", "25", "--hyp", "H3", "--records", str(records)])
    capsys.readouterr()
    lines = [json.loads(l) for l in records.read_text().splitlines()]
    victim = next(l for l in lines if l["verdict"] == "violated")
    victim["witness"]["instance"]["edges"] = victim["witness"]["instance"]["edges"][::-1]
    victim["witness"]["opts"]["max_iters"] = 0  # forces inconclusive on replay
    records.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    assert main(["replay", "--in", str(records)]) == 4


def test_replay_counts_a_witness_without_its_instance_as_a_mismatch(tmp_path, capsys):
    # Such a record has nothing to reproduce; the summary line names it.
    records = tmp_path / "rec.jsonl"
    main(["check", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
          "--seed", "0", "--count", "25", "--hyp", "H3", "--records", str(records)])
    capsys.readouterr()
    lines = [json.loads(l) for l in records.read_text().splitlines()]
    next(l for l in lines if l["verdict"] == "violated")["witness"].pop("instance")
    records.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    assert main(["replay", "--in", str(records), "--format", "summary"]) == 4
    assert capsys.readouterr().out == "records=25 violated=18 reproduced=17 mismatches=1\n"


# An H4 record written while the construction search had a budget, whose
# options still carry it.
BUDGETED_H4_RECORD = (
    '{"hyp":"H4","digest":"2114ed8bc95ecb18","verdict":"violated",'
    '"spec":{"kind":"random","n":3,"left":6,"right":5,"seed":1},'
    '"witness":{"instance":{"n":3,"left":6,"right":5,"edges":[[0,0,0],[1,3,0],[4,1,0],'
    '[5,2,0],[0,3,1],[1,0,1],[3,1,1],[5,2,1],[0,1,2],[1,0,2],[3,4,2],[4,3,2]]},'
    '"oracle_max":3,"failure":{"depth":0,"reason":"count_deficit","digest":"2114ed8bc95ecb18"},'
    '"opts":{"h1_mode":"policy","policy":"maxdrain","construct_budget":256,"max_iters":null}},'
    '"ms":4.445}'
)


def test_replay_reads_a_record_whose_options_carry_a_budget(monkeypatch, capsys):
    # The options parser ignores keys it does not know; the budget never
    # bound on this instance, so the record still reproduces.
    assert run(["replay"], BUDGETED_H4_RECORD + "\n", monkeypatch) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["violated"], rep["reproduced"], rep["mismatches"]) == (1, 1, [])


@pytest.mark.parametrize("key", ["max_iters"])
def test_replay_negative_option_is_invalid_input(tmp_path, capsys, key):
    # Seed 17 stalls for real, so the record is a genuine H2 violation.
    records = tmp_path / "rec.jsonl"
    assert main(["check", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
                 "--seed", "17", "--hyp", "H2", "--records", str(records)]) == 0
    record = json.loads(records.read_text())
    assert record["verdict"] == "violated"
    record["witness"]["opts"][key] = -1
    records.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["replay", "--in", str(records)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: record 0: ") and "non-negative" in err
    assert "Traceback" not in err


def test_minimize_cli(tmp_path, capsys):
    inst = tmp_path / "v.json"
    main(["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
          "--seed", "17", "--out", str(inst)])
    assert main(["minimize", "--hyp", "H2", "--in", str(inst)]) == 0
    g = from_json(capsys.readouterr().out)
    assert g.n >= 1


def test_minimize_non_violating_is_error(tmp_path, capsys):
    inst = tmp_path / "ok.json"
    main(["gen", "--kind", "enumerate", "--n", "2", "--count", "1", "--out", str(inst)])
    assert main(["minimize", "--hyp", "CONJ", "--in", str(inst)]) == 2


def test_pipeline_gen_reduce_solve(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "p.json"
    main(["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
          "--seed", "3", "--out", str(inst)])
    capsys.readouterr()
    assert main(["reduce", "--in", str(inst)]) == 0
    reduced = capsys.readouterr().out
    assert run(["solve"], reduced, monkeypatch) == 0
    assert json.loads(capsys.readouterr().out)["max"] >= 2


def test_round_trip_instance_file(tmp_path, capsys):
    inst = tmp_path / "r.json"
    main(["gen", "--kind", "random", "--n", "2", "--left", "4", "--right", "4",
          "--seed", "2", "--out", str(inst)])
    g = from_json(inst.read_text())
    assert to_canonical_json(g) == inst.read_text().strip()


EMPTY = '{"n":1,"left":2,"right":2,"edges":[]}'
HOLDS = '{"hyp":"H2","verdict":"holds"}'


@pytest.mark.parametrize(
    "lines, message",
    [
        (['{"verdict":"violated","witness":{"instance":' + EMPTY + '}}'],
         "record 0: missing key 'hyp'"),
        (["[1,2]"], "record 0: not a JSON object"),
        ([HOLDS, '{"hyp":"H9","verdict":"violated","witness":{"instance":' + EMPTY + '}}'],
         "record 1: 'H9' is not a valid Hypothesis"),
        ([HOLDS, '{"hyp":"H2","verdict":"violated","witness":{"instance":{"n":1}}}'],
         "record 1: instance missing key 'left'"),
        (['{"hyp":"H2","verdict":"violated","witness":{"instance":' + EMPTY
          + ',"opts":{"policy":"nope"}}}'],
         "record 0: 'nope' is not a valid PivotDonorPolicy"),
        # The group's run rejects the edgeless instance; the error names the
        # group's first record.
        ([HOLDS,
          '{"hyp":"H3","verdict":"violated","witness":{"instance":' + EMPTY + '}}',
          '{"hyp":"H2","verdict":"violated","witness":{"instance":' + EMPTY + '}}'],
         "record 1: invalid graph: color 0 has 0 edges, expected 2"),
        # One edge per color: CONJ used to reproduce this false counterexample.
        (['{"hyp":"CONJ","verdict":"violated","witness":{"instance":'
          '{"n":2,"left":3,"right":3,"edges":[[0,0,0],[0,0,1]]}}}'],
         "record 0: invalid graph: color 0 has 1 edges, expected 3"),
    ],
    ids=["missing-hyp", "not-an-object", "unknown-hyp", "bad-instance", "unknown-policy",
         "group-evaluation", "conj-short-classes"],
)
def test_replay_malformed_record_is_invalid_input(tmp_path, capsys, lines, message):
    records = tmp_path / "bad.jsonl"
    records.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--in", str(records)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {message}"]


def test_replay_names_the_line_that_is_not_json(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    assert main(["check", "--hyp", "H2", "--kind", "random", "--n", "3", "--left", "6",
                 "--right", "5", "--count", "2", "--records", str(records)]) == 0
    first = records.read_text().splitlines()[0]
    records.write_text(first + "\nnot json\n")
    capsys.readouterr()
    assert main(["replay", "--in", str(records)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 2: not valid JSON: Expecting value: line 1 column 1 (char 0)"]


@pytest.mark.parametrize("command", ["validate", "replay"])
def test_deeply_nested_json_is_invalid_input(capsys, monkeypatch, command):
    # Deeper than the decoder's recursion limit: an error line, not a crash.
    assert run([command], "[" * 200_000 + "\n", monkeypatch) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: line 1: not valid JSON: ")
    assert "Traceback" not in err


CHECK = ["check", "--kind", "random", "--n", "3", "--left", "6", "--right", "5"]


@pytest.mark.parametrize(
    "argv",
    [
        CHECK + ["--workers", "0"],
        CHECK + ["--workers", "-3"],
        CHECK + ["--budget", "-1"],
        CHECK + ["--count", "-2"],
        CHECK + ["--max-iters", "-1"],
        CHECK + ["--workers", "two"],
        ["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5", "--count", "-2"],
        ["reduce", "--max-iters", "-1"],
        ["construct", "--max-iters", "-1"],
        ["minimize", "--hyp", "H2", "--max-iters", "-1"],
        ["solve", "--target", "-1"],
    ],
    ids=[
        "check-workers-0", "check-workers-neg", "check-budget", "check-count",
        "check-max-iters", "check-workers-text", "gen-count", "reduce-max-iters",
        "construct-max-iters", "minimize-max-iters", "solve-target",
    ],
)
def test_nonsensical_numeric_argument_is_usage_error(capsys, argv):
    # Rejected while parsing, before any input is read or trial is run.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        CHECK + ["--construct-budget", "5"],
        ["construct", "--budget", "5"],
        ["minimize", "--hyp", "H4", "--construct-budget", "5"],
    ],
    ids=["check-construct-budget", "construct-budget", "minimize-construct-budget"],
)
def test_the_construction_search_takes_no_budget(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: unrecognized arguments: " in capsys.readouterr().err


def test_flag_defaults_are_the_library_defaults():
    parser = build_parser()
    assert _eval_options(parser.parse_args(CHECK)) == EvalOptions()
    # The README findings and acceptance criterion 6 are maxdrain's.
    assert DEFAULT_POLICY is PivotDonorPolicy.MAX_DRAIN


def _check_output(tmp_path, argv):
    """A check's summary and record lines, without their timings."""
    out, records = tmp_path / "out.jsonl", tmp_path / "records.jsonl"
    assert main(argv + ["--out", str(out), "--records", str(records)]) == 0
    lines = out.read_text().splitlines() + records.read_text().splitlines()
    return [{k: v for k, v in json.loads(line).items() if k != "ms"} for line in lines]


@pytest.mark.parametrize(
    "first, then",
    [
        (["--hyp", "H4"], []),
        (["--policy", "lastvertex", "--max-iters", "3"], []),
    ],
    ids=["hyp-then-all", "policy-then-default"],
)
def test_a_reused_parser_keeps_no_state(tmp_path, first, then):
    # main builds its parser once per process; a call after another parses
    # exactly as a call to a fresh parser does.
    argv = CHECK + ["--count", "5"]
    build_parser.cache_clear()
    fresh = _check_output(tmp_path, argv + then)
    _check_output(tmp_path, argv + first)
    assert build_parser() is build_parser()
    again = _check_output(tmp_path, argv + then)
    assert again == fresh
    assert [d["hyp"] for d in again if "trials" in d] == [h.value for h in Hypothesis]
    assert {d["witness"]["opts"]["policy"] for d in again if d.get("witness")} == {"maxdrain"}


# The subcommands that reduce, with the arguments each needs besides.
REDUCING = {
    "reduce": ["reduce"],
    "construct": ["construct"],
    "check": CHECK,
    "minimize": ["minimize", "--hyp", "H2"],
}


@pytest.mark.parametrize("argv", list(REDUCING.values()), ids=list(REDUCING))
def test_reduction_flags_are_shared(capsys, argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults = EvalOptions()
    assert (args.policy, args.max_iters) == (defaults.policy.value, defaults.max_iters)
    assert (defaults.policy, defaults.max_iters) == (DEFAULT_POLICY, None)
    for policy in PivotDonorPolicy:
        args = parser.parse_args(argv + ["--policy", policy.value, "--max-iters", "3"])
        assert (args.policy, args.max_iters) == (policy.value, 3)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv + ["--policy", "bogus"])
    assert exc.value.code == 2
    assert "argument --policy: invalid choice: 'bogus'" in capsys.readouterr().err


# No flag means the library default, and a repeated --policy takes the last
# value, as it does for reduce and check.
@pytest.mark.parametrize(
    "flags, kwargs",
    [
        ([], {}),
        (["--policy", "maxdrain"], {"policy": PivotDonorPolicy.MAX_DRAIN}),
        (["--policy", "lastvertex"], {"policy": PivotDonorPolicy.LAST_VERTEX}),
        (["--policy", "lastvertex", "--max-iters", "3"],
         {"policy": PivotDonorPolicy.LAST_VERTEX, "max_iters": 3}),
        (["--policy", "lastvertex", "--policy", "maxdrain"],
         {"policy": PivotDonorPolicy.MAX_DRAIN}),
    ],
    ids=["default", "maxdrain", "lastvertex", "lastvertex-capped", "repeated"],
)
def test_construct_policies_are_the_library_calls(capsys, monkeypatch, flags, kwargs):
    assert main(["gen", "--kind", "random", "--n", "4", "--left", "7", "--right", "6",
                 "--count", "20"]) == 0
    instances = capsys.readouterr().out
    run(["construct", "--strategy", "backtrack"] + flags, instances, monkeypatch)
    want = "".join(
        json.dumps({"digest": canonical_digest(g),
                    **construct(g, PeelStrategy.BACKTRACKING, **kwargs).to_dict()},
                   separators=(",", ":")) + "\n"
        for g in read_instances(instances.splitlines())
    )
    assert capsys.readouterr().out == want


def test_zero_counts_and_budgets_are_accepted(capsys):
    assert main(CHECK + ["--count", "0", "--hyp", "H2", "--format", "summary"]) == 0
    assert capsys.readouterr().out == "H2: trials=0 holds=0 violated=0 inconclusive=0\n"
    assert main(CHECK + ["--count", "2", "--budget", "0", "--hyp", "H2",
                         "--max-iters", "0", "--format", "summary"]) == 0
    assert capsys.readouterr().out.startswith("H2: trials=0")


@pytest.mark.parametrize("count", [0, 3])
def test_gen_enumerate_emits_exactly_count(capsys, count):
    assert main(["gen", "--kind", "enumerate", "--n", "2", "--count", str(count)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == count


@pytest.mark.parametrize("command", ["gen", "check"])
def test_enumerate_with_a_negative_side_is_invalid_input(capsys, command):
    # Not an empty enumeration of zero instances or trials, nor when a side
    # is non-negative but too small: random refuses the same sizes.
    for kind, left in [("enumerate", "-1"), ("enumerate", "2"), ("random", "2")]:
        assert main([command, "--kind", kind, "--n", "2", "--left", left, "--right", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: sizes too small: need at least 3 vertices per side, got {left}x3\n"


@pytest.mark.parametrize(
    "spec",
    [
        ["--kind", "random", "--n", "3", "--left", "2", "--right", "3"],
        ["--kind", "enumerate", "--n", "2", "--left", "-1", "--right", "3"],
        ["--kind", "enumerate", "--n", "4", "--left", "8", "--right", "8"],
        ["--kind", "latin", "--order", "4", "--drop", "4"],
    ],
)
def test_failed_gen_leaves_an_existing_output_untouched(tmp_path, capsys, spec):
    out = tmp_path / "out.jsonl"
    out.write_text("kept\n")
    assert main(["gen", *spec, "--count", "3", "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "2", "--order", "5", "--right", "3"], "of order 5 needs --n 4, got 2"),
        (["--order", "5", "--right", "3"], "of order 5 needs --right 5, got 3"),
        (["--left", "4", "--n", "4"], "of order 4 needs --n 3, got 4"),
        (["--order", "5", "--left", "7"], "of order 5 needs --left 5, got 7"),
    ],
)
def test_gen_latin_refuses_flags_that_contradict_the_order(tmp_path, capsys, flags, message):
    # Not a square of the --order beside an --n, --left or --right that says
    # otherwise.
    out = tmp_path / "out.jsonl"
    out.write_text("kept\n")
    assert main(["gen", "--kind", "latin", *flags, "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"
    assert capsys.readouterr().err == f"error: --kind latin {message}\n"


RANDOM_3X3 = ["--kind", "random", "--n", "2", "--left", "3", "--right", "3"]


@pytest.mark.parametrize("command", ["gen", "check"])
@pytest.mark.parametrize(
    "flags, message",
    [
        ([*RANDOM_3X3, "--drop", "7", "--order", "9"], "--kind random takes no --order"),
        ([*RANDOM_3X3, "--drop", "0"], "--kind random takes no --drop"),
        (["--kind", "enumerate", "--n", "1", "--order", "2"], "--kind enumerate takes no --order"),
        (["--kind", "enumerate", "--n", "1", "--drop", "0"], "--kind enumerate takes no --drop"),
        (["--kind", "enumerate", "--n", "1", "--seed", "5"], "--kind enumerate takes no --seed"),
        (["--kind", "enumerate", "--n", "1", "--seed", "0"], "--kind enumerate takes no --seed"),
    ],
)
def test_gen_and_check_refuse_latin_flags_for_other_kinds(
    tmp_path, capsys, command, flags, message
):
    # Random and enumerated instances have no square to take an --order or
    # a --drop from, and an enumeration draws nothing to take a --seed for,
    # so no such flag may pass unread.
    out = tmp_path / "out.jsonl"
    out.write_text("kept\n")
    assert main([command, *flags, "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("count", ["0", "1", "5"])
def test_check_refuses_a_count_beside_an_enumeration(tmp_path, capsys, count):
    # gen caps an enumeration with --count; check would run all of it, so
    # it refuses the flag and names --budget, its cap.
    out = tmp_path / "out.jsonl"
    out.write_text("kept\n")
    flags = ["--kind", "enumerate", "--n", "2", "--left", "3", "--right", "3", "--count", count]
    assert main(["check", *flags, "--hyp", "CONJ", "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"
    assert capsys.readouterr().err == (
        "error: check --kind enumerate takes no --count: cap it with --budget\n"
    )


@pytest.mark.parametrize(
    "flags",
    [
        ["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5", "--seed", "-1"],
        ["check", "--kind", "latin", "--order", "4", "--seed", "-1"],
        ["check", "--kind", "random", "--n", "3", "--left", "6", "--right", "5",
         "--seed", "-100", "--count", "200"],
    ],
    ids=["gen-random", "check-latin", "check-across-zero"],
)
def test_gen_and_check_refuse_a_negative_seed(tmp_path, capsys, flags):
    # random.Random seeds from abs(seed): seeds -100..-1 would repeat 1..100.
    out = tmp_path / "out.jsonl"
    out.write_text("kept\n")
    assert main([*flags, "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"
    seed = flags[flags.index("--seed") + 1]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: generation needs seed >= 0, got {seed}\n"


@pytest.mark.parametrize("command", ["gen", "check"])
def test_gen_and_check_take_no_input(tmp_path, capsys, command):
    # Both commands generate their instances, so an --in would pass unread.
    out = tmp_path / "out.jsonl"
    out.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        main([command, *RANDOM_3X3, "--in", str(tmp_path / "absent"), "--out", str(out)])
    assert exc.value.code == 2
    assert out.read_text() == "kept\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --in" in captured.err


@pytest.mark.parametrize("hyps", [["H4", "H4"], ["H4", "h4"], ["h2", "H4", "H2"]])
def test_check_refuses_a_repeated_hyp(tmp_path, capsys, hyps):
    # A repeat would run its campaign twice: two equal summary lines, and
    # every record twice, which replay would count twice.
    out, records = tmp_path / "out.txt", tmp_path / "records.jsonl"
    out.write_text("kept\n")
    records.write_text("kept\n")
    argv = ["check", *RANDOM_3X3, "--out", str(out), "--records", str(records)]
    for h in hyps:
        argv += ["--hyp", h]
    assert main(argv) == 2
    assert out.read_text() == records.read_text() == "kept\n"
    assert capsys.readouterr().err == f"error: --hyp {hyps[-1].upper()} given more than once\n"


@pytest.mark.parametrize("exists", [False, True])
def test_check_refuses_records_and_summaries_in_one_file(tmp_path, capsys, monkeypatch, exists):
    # The summaries would overwrite the records.  Refused before any trial
    # runs, whether or not the file exists yet, however the path is spelled.
    monkeypatch.chdir(tmp_path)
    both = tmp_path / "both.jsonl"
    if exists:
        both.write_text("kept\n")
    monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: pytest.fail("a trial ran"))
    argv = ["check", *RANDOM_3X3, "--records", "both.jsonl", "--out", "./both.jsonl"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --records and --out both name ./both.jsonl\n"
    if exists:
        assert both.read_text() == "kept\n"
    else:
        assert not both.exists()


def test_replay_refuses_its_input_as_its_output(tmp_path, capsys, monkeypatch):
    # The report would overwrite the records it replays.  Refused before
    # the records are read, however the path is spelled.
    monkeypatch.chdir(tmp_path)
    records = tmp_path / "records.jsonl"
    assert main(["check", *RANDOM_3X3, "--hyp", "CONJ", "--records", str(records)]) == 0
    kept = records.read_bytes()
    capsys.readouterr()
    monkeypatch.setattr(cli, "replay", lambda *a, **k: pytest.fail("the records were read"))
    assert main(["replay", "--in", "records.jsonl", "--out", "./records.jsonl"]) == 2
    assert capsys.readouterr().err == "error: output ./records.jsonl is the input file\n"
    assert records.read_bytes() == kept


def test_check_writes_records_and_summaries_both_to_stdout(capsys):
    # '-' and an omitted --out name stdout, which takes both in turn.
    assert main(["check", *RANDOM_3X3, "--hyp", "CONJ", "--records", "-"]) == 0
    record, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert (record["hyp"], summary["hyp"], summary["trials"]) == ("CONJ", "CONJ", 1)


def test_check_records_name_a_latin_drop(capsys):
    argv = ["check", "--kind", "latin", "--order", "4", "--drop", "1", "--hyp", "CONJ"]
    assert main([*argv, "--records", "-"]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["spec"] == {"kind": "latin", "n": 3, "left": 4, "right": 4, "seed": 0, "drop": 1}


def _piped(capsys, gen_argv, argv, monkeypatch):
    assert main(["gen"] + gen_argv) == 0
    instance = capsys.readouterr().out
    code = run(argv, instance, monkeypatch)
    return code, capsys.readouterr().out


LATIN_7 = ["--kind", "latin", "--order", "4", "--seed", "7"]


# Exact record bytes: key order, witnesses and node counts are part of the
# output format.
@pytest.mark.parametrize(
    "gen_argv, argv, code, line",
    [
        (LATIN_7, ["solve"], 0,
         '{"digest":"603a54f16a6a1798","max":3,"witness":[[0,1,0],[1,2,1],[2,0,2]],"nodes":11}'),
        (LATIN_7, ["solve", "--target", "3"], 0,
         '{"digest":"603a54f16a6a1798","target":3,"found":true,'
         '"witness":[[0,1,0],[1,2,1],[2,0,2]]}'),
        (["--kind", "random", "--n", "2", "--left", "3", "--right", "4", "--seed", "0"],
         ["shift", "--side", "right", "--pivot", "0", "--donor", "3", "--emit", "record"], 0,
         '{"digest_before":"3902997b466ab699","digest_after":"542573de7aca26ca","side":"right",'
         '"pivot":0,"donor":3,"moves":1,"swaps":1,"rewrites":['
         '{"kind":"move","color":0,"removed":[[1,3,0]],"added":[[1,0,0]]},'
         '{"kind":"swap","color":1,"removed":[[2,0,1],[1,3,1]],"added":[[1,0,1],[2,3,1]]}],'
         '"graph":{"n":2,"left":3,"right":4,'
         '"edges":[[0,2,0],[1,0,0],[2,1,0],[0,2,1],[1,0,1],[2,3,1]]}}'),
        (["--kind", "random", "--n", "3", "--left", "6", "--right", "5", "--seed", "0"],
         ["reduce", "--emit", "record"], 0,
         '{"digest_before":"95437ec47a72c236","status":"normalized","iterations":4,'
         '"graph":{"n":3,"left":4,"right":4,"edges":[[0,0,0],[1,3,0],[2,2,0],[3,1,0],'
         '[0,3,1],[1,1,1],[2,2,1],[3,0,1],[0,1,2],[1,3,2],[2,0,2],[3,2,2]]},'
         '"left_map":[0,1,2,3],"right_map":[0,1,2,3],"trace":['
         '{"side":"left","pivot":0,"donor":4,"moves":2,"swaps":0},'
         '{"side":"right","pivot":0,"donor":4,"moves":1,"swaps":1},'
         '{"side":"left","pivot":2,"donor":4,"moves":1,"swaps":0},'
         '{"side":"right","pivot":3,"donor":4,"moves":1,"swaps":0}]}'),
        (["--kind", "random", "--n", "3", "--left", "6", "--right", "5", "--seed", "1"],
         ["construct", "--strategy", "backtrack"], 3,
         '{"digest":"2114ed8bc95ecb18","status":"step_failed","matching":null,"attempts":5,'
         '"failure":{"depth":0,"reason":"count_deficit","digest":"2114ed8bc95ecb18"},'
         '"candidate":[[0,0,0],[1,0,1],[3,2,2]],'
         '"steps":[{"depth":0,"color":0,"pivot":0,"edge":[0,0,0]}]}'),
        (["--kind", "random", "--n", "3", "--left", "6", "--right", "5", "--seed", "1"],
         ["construct", "--strategy", "backtrack", "--format", "summary"], 3,
         '2114ed8bc95ecb18 step_failed failure='
         '{"depth":0,"reason":"count_deficit","digest":"2114ed8bc95ecb18"}'),
        # The cap reaches every reduction of the search, the entry one first.
        (["--kind", "random", "--n", "3", "--left", "6", "--right", "5", "--seed", "0"],
         ["construct", "--strategy", "backtrack", "--max-iters", "0"], 3,
         '{"digest":"95437ec47a72c236","status":"step_failed","matching":null,"attempts":0,'
         '"failure":{"depth":0,"reason":"iteration_cap","digest":"95437ec47a72c236"},'
         '"candidate":null,"steps":[]}'),
    ],
    ids=[
        "solve", "solve-target", "shift-right-record", "reduce-record", "construct-backtrack",
        "construct-backtrack-summary", "construct-max-iters-0",
    ],
)
def test_record_bytes_are_pinned(capsys, monkeypatch, gen_argv, argv, code, line):
    assert _piped(capsys, gen_argv, argv, monkeypatch) == (code, line + "\n")


CAMPAIGNS = Path(__file__).resolve().parent.parent / "scripts" / "run_campaigns.py"


@pytest.mark.parametrize(
    "args",
    [
        ["--workers", "-3", "--latin-trials", "-5"],
        ["--workers", "0"],
        ["--trials", "-1"],
        ["--seed", "-1"],
    ],
    ids=["workers-and-latin-trials", "workers-0", "trials", "seed"],
)
def test_run_campaigns_rejects_nonsensical_numbers(tmp_path, args):
    out_dir = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, str(CAMPAIGNS), "--out-dir", str(out_dir), "--phase", "conj", *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "error: argument --" in proc.stderr and "Traceback" not in proc.stderr
    assert not (out_dir / "summary.json").exists()
