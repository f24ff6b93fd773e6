"""Every command frees what an instance made by reference counting alone.

A reference cycle keeps an instance's edges alive until the cyclic collector
runs, and a long stream pays for those collections.  With the collector off
and every object it finds kept in ``gc.garbage``, each command below must
leave nothing for it.  The module imports neither pytest nor hypothesis, so
it also runs as a plain script::

    PYTHONPATH=src python tests/test_reference_cycles.py
"""

from __future__ import annotations

import contextlib
import gc
import io
import tempfile
from collections import Counter
from pathlib import Path

from rainbowmatch import cli


def _commands(tmp: Path) -> list[list[str]]:
    latin, n4, records = tmp / "latin8.jsonl", tmp / "n4.jsonl", tmp / "records.jsonl"
    return [
        ["gen", "--kind", "latin", "--order", "8", "--count", "20", "--out", str(latin)],
        ["gen", "--kind", "random", "--n", "4", "--left", "7", "--right", "6", "--count", "10",
         "--out", str(n4)],
        ["solve", "--in", str(latin)],
        ["validate", "--in", str(latin)],
        ["check", "--kind", "random", "--n", "3", "--left", "6", "--right", "5", "--count", "30",
         "--records", str(records)],
        ["replay", "--in", str(records)],
        ["construct", "--strategy", "backtrack", "--in", str(n4)],
        ["reduce", "--in", str(n4)],
        ["shift", "--pivot", "0", "--donor", "1", "--in", str(n4)],
    ]


def cyclic_garbage(argv: list[str]) -> Counter:
    """The objects ``cli.main(argv)`` leaves to the cyclic collector, by type
    name; stdout is discarded."""
    enabled = gc.isenabled()
    debug = gc.get_debug()
    before = len(gc.garbage)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        gc.collect()
        return Counter(type(x).__name__ for x in gc.garbage[before:])
    finally:
        del gc.garbage[before:]
        gc.set_debug(debug)
        if enabled:
            gc.enable()


def test_commands_leave_no_reference_cycle(tmp_path):
    # The first parser built leaves one cycle of its own, once per process.
    cli.build_parser()
    for argv in _commands(tmp_path):
        assert cyclic_garbage(argv) == Counter(), argv[0]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        test_commands_leave_no_reference_cycle(Path(tmp))
    print("no reference cycle")
