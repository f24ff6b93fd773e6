"""Golden `check` records: the sha256 of each campaign's record file, with
the per-record ``ms`` timing stripped, is pinned.

Criterion 8 compares a run only with itself; these digests compare every
run with the one that produced them, so a change to the reduction, the
construction or any evaluator that moves a single byte of a record shows
up here.  A deliberate change of the record format or of a verdict needs
new digests, stated as such.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from rainbowmatch.cli import main

CASES = {
    "all_n3_6x5_0_299": (
        ["--n", "3", "--left", "6", "--right", "5", "--seed", "0", "--count", "300"],
        "8036cb967a197cf8aee743f0798f67e177d860b09448221609be23babe53c777",
    ),
    "h4_n4_7x6_0_99_maxdrain": (
        ["--n", "4", "--left", "7", "--right", "6", "--seed", "0", "--count", "100",
         "--hyp", "H4", "--policy", "maxdrain"],
        "db402d5e997b062e814befdf16edf76e1905b0abedf6358f710086897ba5dc9c",
    ),
    "h4_n4_7x6_0_99_lastvertex": (
        ["--n", "4", "--left", "7", "--right", "6", "--seed", "0", "--count", "100",
         "--hyp", "H4", "--policy", "lastvertex"],
        "92606ad4ac189619ebbdcd13e2f86306416e37a58f7eaed76dc333075e11e207",
    ),
}


def records_digest(path) -> str:
    """sha256 of the record file with each record's ``ms`` removed."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        del record["ms"]
        lines.append(json.dumps(record, separators=(",", ":")))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_records_match_golden_digest(name, tmp_path):
    argv, want = CASES[name]
    records = tmp_path / "records.jsonl"
    code = main(["check", "--kind", "random", *argv,
                 "--records", str(records), "--out", str(tmp_path / "summary.jsonl")])
    assert code == 0
    assert records_digest(records) == want, name


# Golden bytes at the I/O boundary: the sha256 of the stdout of `gen`, of
# `solve` and `construct` on such streams, and of `validate` on a stream that
# mixes valid instances with every rule's violation.  A change to parsing,
# validation, the construction search or encoding that moves one output byte
# shows up here.

LATIN_GEN = ["gen", "--kind", "latin", "--order", "8", "--seed", "0", "--count", "200"]
N4_GEN = ["gen", "--kind", "random", "--n", "4", "--left", "7", "--right", "6", "--seed", "0",
          "--count", "100"]
N3_GEN = ["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5", "--seed", "0",
          "--count", "100"]
N4_6X5_GEN = ["gen", "--kind", "random", "--n", "4", "--left", "6", "--right", "5", "--seed", "0",
              "--count", "50"]
N5_GEN = ["gen", "--kind", "random", "--n", "5", "--left", "8", "--right", "7", "--seed", "0",
          "--count", "20"]


def _instance(n, left, right, edges) -> str:
    return json.dumps({"n": n, "left": left, "right": right, "edges": edges})


# n = 2 on 3 + 3 vertices: the smallest normal form, edges deliberately
# out of canonical order.
VALID = [[2, 2, 0], [0, 0, 0], [1, 1, 0], [2, 0, 1], [0, 1, 1], [1, 2, 1]]

VALIDATE_STREAM = [
    _instance(2, 3, 3, VALID),
    _instance(0, 0, 0, []),
    # shape: negative dimensions, alone and beside other violations
    _instance(-1, 2, 2, []),
    _instance(1, -2, -3, [[0, 0, 0]]),
    # bounds on each coordinate, both ends
    _instance(2, 3, 3, [*VALID, [3, 0, 0], [-1, 0, 1], [0, 3, 1], [0, -1, 0], [0, 0, 2], [0, 0, -1]]),
    # properness on the left, on the right, and both in one color
    _instance(2, 3, 3, [[0, 0, 0], [0, 1, 0], [1, 2, 0], [0, 1, 1], [1, 2, 1], [2, 0, 1]]),
    _instance(2, 3, 3, [[0, 0, 0], [1, 0, 0], [2, 2, 0], [0, 1, 1], [1, 2, 1], [2, 1, 1]]),
    _instance(2, 4, 4, [[0, 0, 1], [0, 0, 1], [1, 1, 1], [3, 3, 0], [2, 2, 0], [1, 1, 0],
                        [3, 3, 1], [0, 2, 0]]),
    # counts: a short color, a long color, one empty color, several empty
    _instance(2, 3, 3, [[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 2, 1], [2, 0, 1]]),
    _instance(2, 4, 4, [*VALID, [3, 3, 0]]),
    _instance(3, 3, 3, VALID),
    _instance(5, 3, 3, [[0, 0, 3], [1, 1, 3], [2, 2, 3]]),
    # everything at once, colors out of order
    _instance(3, 3, 3, [[0, 0, 2], [0, 1, 2], [5, 0, 0], [1, 1, 0], [2, 1, 0], [1, 1, 1]]),
    _instance(2, 3, 3, VALID[::-1]),
    # huge indices, in bounds and out
    _instance(1, 10**12, 2, [[10**12 - 1, 0, 0], [0, 1, 0]]),
    _instance(1, 2, 2, [[10**12, 0, 0], [0, 1, 0]]),
]

IO_CASES = {
    "gen_latin_8_0_199": (
        [LATIN_GEN], None, [0],
        "14225df9b74a9890282ba3a7c4a1e1e6247fd44d974cec007d2f9501557b515f",
    ),
    # The solve_stream benchmark's input, and a Latin stream with a dropped
    # symbol other than the last.
    "gen_latin_8_0_9999": (
        [["gen", "--kind", "latin", "--order", "8", "--seed", "0", "--count", "10000"]], None, [0],
        "2787f1b433a1caf914606a33b6e34aeb97a008f935fd477fa5679b7dec32e64f",
    ),
    "gen_latin_6_drop2_5_299": (
        [["gen", "--kind", "latin", "--order", "6", "--drop", "2", "--seed", "5",
          "--count", "300"]], None, [0],
        "5851a4203459d4fe1a56559150b9c729cbbf8f24e022671361150562c54a7d1b",
    ),
    # Streams whose edges gen writes without sorting them: random classes
    # with sorted lefts, and every n = 2 instance on 3 + 3 vertices.
    "gen_random_n3_6x5_0_999": (
        [["gen", "--kind", "random", "--n", "3", "--left", "6", "--right", "5", "--seed", "0",
          "--count", "1000"]], None, [0],
        "c40a8e59ab78f19450d56623fd7cee48b884f72dfde4b3a3aa6f8b02f1545145",
    ),
    "gen_random_n4_7x6_0_299": (
        [["gen", "--kind", "random", "--n", "4", "--left", "7", "--right", "6", "--seed", "0",
          "--count", "300"]], None, [0],
        "7ac93fb7862096cf5ce486a634a1b30563ece765591d5275344c80c04ff0a5ff",
    ),
    "gen_enumerate_n2_3x3": (
        [["gen", "--kind", "enumerate", "--n", "2", "--count", "36"]], None, [0],
        "5ba88405e5305edfc396a12a4e65fea63221492bf75d195f5669502f09e39ee9",
    ),
    "solve_latin_8_0_199": (
        [LATIN_GEN, ["solve"]], None, [0, 0],
        "b88a2e5de502fb1f8dce0c51079eb2b579b0bc3e1b80f3a8c17ce355e0ac0015",
    ),
    # construct's lines carry what records do not: the steps, the attempts,
    # the H5 candidate and the failure's digest.
    "construct_backtrack_n4_maxdrain": (
        [N4_GEN, ["construct", "--strategy", "backtrack", "--policy", "maxdrain"]], None, [0, 3],
        "a58a801adea0510cadc5509662580b0a4d1422f22e8370115e294c1570cef0d5",
    ),
    "construct_backtrack_n4_lastvertex": (
        [N4_GEN, ["construct", "--strategy", "backtrack", "--policy", "lastvertex"]], None, [0, 3],
        "63cd908b7c725761219490ca7f87cb4667c9e988cbd0a54cce88366c58edc7f8",
    ),
    # Three peel levels above the n == 2 base, and the base's filter of
    # pairs once the H5 witness exists.
    "construct_backtrack_n5": (
        [N5_GEN, ["construct", "--strategy", "backtrack"]], None, [0, 3],
        "e9f61ba4d7553ec0ec1f9e67e5c624cd4d5d5a1a95f9d01173e1f47cd8ca787c",
    ),
    # Every entry reduction stops at the cap: the failure's digest is the
    # input's.
    "construct_backtrack_n4_lastvertex_capped": (
        [N4_GEN, ["construct", "--strategy", "backtrack", "--policy", "lastvertex",
                  "--max-iters", "2"]], None, [0, 3],
        "72bfb55cf66bf4b4919ff6cff3b50face12576d4f006b6e02f707439cc96996d",
    ),
    # Entries that normalize within the cap, where a residual stopped by it
    # outranks a deeper failure kept before it (seeds 4, 8 and 10 among
    # others), so the level the failure's digest hashes is pinned.
    "construct_backtrack_n4_6x5_capped": (
        [N4_6X5_GEN, ["construct", "--strategy", "backtrack", "--policy", "lastvertex",
                      "--max-iters", "2"]], None, [0, 3],
        "d3985740706e13f887901ac0aee68f3ca7bea28d7a89fab333d403805eecf96e",
    ),
    # The reduction's trace, step by step.
    "reduce_record_n4": (
        [N4_GEN, ["reduce", "--emit", "record"]], None, [0, 3],
        "619571b6694be2db0f0f8bb19e99babc5e9a41a43985a2cd8090ca8848e5a8b2",
    ),
    "construct_first_n3": (
        [N3_GEN, ["construct", "--strategy", "first"]], None, [0, 3],
        "4d5c3880dfbebd084e6e21bcf1fe82577006df93954d2b7d927f42bd29cceedb",
    ),
    "validate_json": (
        [["validate"]], VALIDATE_STREAM, [2],
        "fdd762e7abb60bae5e8279a54171b36c4e88e233e9042a73c13cd7862a8cca51",
    ),
    "validate_summary": (
        [["validate", "--format", "summary"]], VALIDATE_STREAM, [2],
        "8322f9b632123ad266df69487d1169052cfbfd6badffcba5092c4be365f8abe1",
    ),
    "validate_json_no_counts": (
        [["validate", "--no-counts"]], VALIDATE_STREAM, [2],
        "1035335fbfaf92c8714eb970bd8e12996062ea49c58faf17fa982f6ec084f6e2",
    ),
}


def pipeline_stdout(stages, lines, tmp_path) -> tuple[str, list[int]]:
    """The last stage's output and every stage's exit code, each stage
    reading the previous one's output (the first reads ``lines``)."""
    text = None if lines is None else "".join(line + "\n" for line in lines)
    codes = []
    for i, argv in enumerate(stages):
        out = tmp_path / f"stage{i}.out"
        inp = []
        if text is not None:
            (tmp_path / f"stage{i}.in").write_text(text, encoding="utf-8")
            inp = ["--in", str(tmp_path / f"stage{i}.in")]
        codes.append(main([*argv, *inp, "--out", str(out)]))
        text = out.read_text(encoding="utf-8")
    return text, codes


@pytest.mark.parametrize("name", sorted(IO_CASES))
def test_io_boundary_matches_golden_digest(name, tmp_path):
    stages, lines, want_codes, want = IO_CASES[name]
    text, codes = pipeline_stdout(stages, lines, tmp_path)
    assert codes == want_codes
    assert hashlib.sha256(text.encode()).hexdigest() == want, name
