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
        "2177e614aed62c5a5e852e07c16cb68f7fe77bb5c90e3579f4bef0ea164bf5c7",
    ),
    "h4_n4_7x6_0_99_maxdrain": (
        ["--n", "4", "--left", "7", "--right", "6", "--seed", "0", "--count", "100",
         "--hyp", "H4", "--policy", "maxdrain"],
        "17a75954f5752680dc6dd7ffe9e66be1792ba6eb88bab6664bf7b0c13369906b",
    ),
    "h4_n4_7x6_0_99_lastvertex": (
        ["--n", "4", "--left", "7", "--right", "6", "--seed", "0", "--count", "100",
         "--hyp", "H4", "--policy", "lastvertex"],
        "f30d4610bed65d55acd189fc08b2f3da3c559d913285ee6636f0dbc8ed5f3082",
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
# `solve` on that stream, and of `validate` on a stream that mixes valid
# instances with every rule's violation.  A change to parsing, validation or
# encoding that moves one output byte shows up here.

LATIN_GEN = ["gen", "--kind", "latin", "--order", "8", "--seed", "0", "--count", "200"]


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
    "solve_latin_8_0_199": (
        [LATIN_GEN, ["solve"]], None, [0, 0],
        "b88a2e5de502fb1f8dce0c51079eb2b579b0bc3e1b80f3a8c17ce355e0ac0015",
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
