"""Every subcommand answers arbitrary input with a documented exit code.

Lines are arbitrary text or JSON, most of it shaped like an instance or a
campaign record so that it gets past the parser.  Whatever the input, the
exit code is 0, 2, 3 or 4 and nothing escapes ``main`` as a traceback.
``gen`` and ``check`` read no input: their spec flags are fuzzed instead.
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

# Small integers get instances past validation.  Side sizes and edge
# entries also reach 10**12: no subcommand may do work in proportion to a
# declared side or a vertex index.
SMALL = st.integers(-2, 9)
WIDE = SMALL | st.integers(10, 10**12)

json_values = st.recursive(
    st.none() | st.booleans() | SMALL | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)

edges = st.lists(st.lists(WIDE, min_size=3, max_size=3) | json_values, max_size=12)


@st.composite
def huge_sides(draw):
    """A counts-valid instance whose last vertex on one side is relabeled to
    a huge index, the side declared just large enough to hold it."""
    d = to_dict(draw(counts_valid_graphs()))
    key, at = draw(st.sampled_from([("left", 0), ("right", 1)]))
    size = draw(st.integers(d[key], 10**12))
    for e in d["edges"]:
        if e[at] == d[key] - 1:
            e[at] = size - 1
    d[key] = size
    return d


instances = (
    st.fixed_dictionaries(
        {}, optional={"n": SMALL | json_values, "left": WIDE, "right": WIDE, "edges": edges}
    )
    | st.fixed_dictionaries({"n": SMALL, "left": WIDE, "right": WIDE, "edges": edges})
    | counts_valid_graphs().map(to_dict)
    | huge_sides()
)

options = st.fixed_dictionaries({}, optional={
    "h1_mode": st.sampled_from(["policy", "all", "bogus"]),
    "policy": st.sampled_from(["maxdrain", "lastvertex", "bogus"]),
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
        ["construct", "--strategy", "backtrack"],
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


@st.composite
def spec_commands(draw):
    """``gen`` or a capped ``check`` on small spec flags, each flag present
    or not, so that many specs break the size rule."""
    argv = [draw(st.sampled_from(["gen", "check"])),
            "--kind", draw(st.sampled_from(["random", "latin", "enumerate"]))]
    for flag in ("--n", "--left", "--right", "--order", "--drop", "--seed", "--count"):
        if draw(st.booleans()):
            argv += [flag, str(draw(SMALL))]
    if argv[0] == "check":
        argv += ["--budget", str(draw(st.integers(0, 9)))]
    return argv


@given(spec_commands())
@settings(max_examples=200, deadline=None)
def test_gen_and_check_map_any_spec_to_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a negative --count
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
