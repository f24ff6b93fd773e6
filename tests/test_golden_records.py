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
        "4cad9fe8f0d2042f5436c74113f4dcf0b66553b5cdf92dc33f135b930d31048f",
    ),
    "h4_n4_7x6_0_99_lastvertex": (
        ["--n", "4", "--left", "7", "--right", "6", "--seed", "0", "--count", "100",
         "--hyp", "H4", "--policy", "lastvertex"],
        "3a6e72e212e8d6ffdd65ccdbf9b8346cbe508cb081cd32811393b7cd170f961f",
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
