"""The workflow runs every console-script check, each once, in the script's order.

The checks themselves run in CI and from ``bash scripts/ci_checks.sh``; this
test only reads the two files."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_calls_each_console_script_check_once():
    script = (ROOT / "scripts" / "ci_checks.sh").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    defined = re.findall(r"^check_(\w+)\(\) \{$", script, re.M)
    called = re.findall(r"^ +run: bash scripts/ci_checks\.sh (\w+)$", workflow, re.M)
    assert defined and len(defined) == len(set(defined))
    assert called == defined
    assert workflow.count("scripts/ci_checks.sh") == len(called)
