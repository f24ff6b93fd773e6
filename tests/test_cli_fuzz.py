"""Every subcommand answers arbitrary input with a documented exit code.

Lines are arbitrary text or JSON, most of it shaped like an instance or a
campaign record so that it gets past the parser.  Whatever the input, the
exit code is 0, 2, 3 or 4 and nothing escapes ``main`` as a traceback.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch.cli import main
from rainbowmatch.graph import to_dict
from strategies import counts_valid_graphs

# Integers stay small: `minimize` tries deleting every declared vertex, so a
# huge in-bounds vertex index costs time in proportion to its value.
SMALL = st.integers(-2, 9)

json_values = st.recursive(
    st.none() | st.booleans() | SMALL | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)

edges = st.lists(st.lists(SMALL, min_size=3, max_size=3) | json_values, max_size=12)

instances = (
    st.fixed_dictionaries(
        {}, optional={"n": SMALL | json_values, "left": SMALL, "right": SMALL, "edges": edges}
    )
    | st.fixed_dictionaries({"n": SMALL, "left": SMALL, "right": SMALL, "edges": edges})
    | counts_valid_graphs().map(to_dict)
)

options = st.fixed_dictionaries({}, optional={
    "h1_mode": st.sampled_from(["policy", "all", "bogus"]),
    "policy": st.sampled_from(["maxdrain", "lastvertex", "bogus"]),
    "construct_budget": SMALL | json_values,
    "max_iters": SMALL | st.none() | json_values,
})

records = st.fixed_dictionaries(
    {
        "hyp": st.sampled_from(["H1", "H2", "H3", "H4", "H5", "CONJ"]) | json_values,
        "verdict": st.sampled_from(["violated", "holds"]),
    },
    optional={
        "witness": st.fixed_dictionaries({"instance": instances}, optional={"opts": options})
        | json_values,
    },
)

lines = st.lists(
    st.text(max_size=30)
    | json_values.map(json.dumps)
    | instances.map(json.dumps)
    | records.map(json.dumps),
    max_size=4,
)


@st.composite
def commands(draw):
    pivot, donor = draw(SMALL), draw(SMALL)
    return draw(st.sampled_from([
        ["validate"],
        ["validate", "--format", "summary", "--no-counts"],
        ["solve"],
        ["solve", "--target", "2"],
        ["shift", "--pivot", str(pivot), "--donor", str(donor), "--emit", "record"],
        ["shift", "--side", "right", "--pivot", str(pivot), "--donor", str(donor)],
        ["reduce", "--emit", "record"],
        ["reduce", "--policy", "lastvertex", "--max-iters", "3"],
        ["construct", "--strategy", "backtrack", "--budget", "20"],
        ["construct", "--policy", "lastvertex", "--policy", "maxdrain"],
        ["minimize", "--hyp", "H3"],
        ["replay"],
    ]))


@given(commands(), lines)
@settings(max_examples=300, deadline=None)
def test_every_subcommand_maps_any_input_to_an_exit_code(argv, text_lines):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO("\n".join(text_lines) + "\n")
    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, text_lines, err.getvalue())
    assert "Traceback" not in err.getvalue()
