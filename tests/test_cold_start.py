"""A fresh interpreter imports the CLI without the modules that only some
runs use: the process pool loads where a campaign pools, and no value type
is a dataclass.  Every CLI stage is a fresh process, so each pays for what
the import loads."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs under -S, so that no site-packages .pth file loads a module first.
CHILD = """
import json, sys
sys.path.insert(0, {src!r})
import rainbowmatch.cli
loaded = [m for m in ("dataclasses", "concurrent.futures", "multiprocessing") if m in sys.modules]
assert not loaded, f"importing rainbowmatch.cli loaded {{loaded}}"

from rainbowmatch.generators import random_spec_stream
from rainbowmatch.harness import Hypothesis, run_campaign

def stripped(workers):
    summaries, records = run_campaign(
        tuple(Hypothesis), random_spec_stream(3, 6, 5, 0, 4), workers=workers
    )
    lines = [s.to_dict() for s in summaries] + [json.loads(r.to_json_line()) for r in records]
    for d in lines:
        del d["ms"]
    return lines

one = stripped(1)
assert len(one) == 6 + 6 * 4, len(one)
assert stripped(2) == one, "two workers gave other records than one"
assert "concurrent.futures" in sys.modules
"""


def test_cli_import_loads_no_pool_and_no_dataclasses_and_pools_on_use():
    child = subprocess.run(
        [sys.executable, "-S", "-c", CHILD.format(src=str(SRC))],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
