from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import I2_DIGEST, I2_EDGES
from rainbowmatch.graph import (
    RULE_BOUNDS,
    RULE_COUNTS,
    RULE_PROPERNESS,
    ColoredMultigraph,
    Edge,
    Matching,
    Side,
    canonical_digest,
    canonical_edges,
    compact_json,
    from_dict,
    from_json,
    is_rainbow_matching,
    read_instances,
    require_valid,
    to_canonical_json,
    to_dict,
    validate,
)
from reference import (
    colors_at,
    degree,
    delete_color,
    delete_vertex,
    incident_edges,
    reference_from_dict,
    reference_validate,
)
from strategies import counts_valid_graphs, perturbed_dicts, perturbed_graphs, proper_graphs


def test_builder_and_sizes(i2):
    assert i2.n == 2
    assert i2.side_size(Side.LEFT) == 3
    assert i2.side_size(Side.RIGHT) == 3
    assert len(i2.edges) == 6


def test_validate_ok(i2):
    report = validate(i2, require_counts=True)
    assert report.ok
    assert report.violations == ()


def test_validate_properness_same_left_vertex():
    g = ColoredMultigraph.of(1, 2, 2, [(0, 0, 0), (0, 1, 0)])
    report = validate(g)
    assert not report.ok
    assert any(v.rule == RULE_PROPERNESS for v in report.violations)


def test_validate_properness_same_right_vertex():
    g = ColoredMultigraph.of(1, 2, 2, [(0, 0, 0), (1, 0, 0)])
    assert any(v.rule == RULE_PROPERNESS for v in validate(g).violations)


def test_validate_parallel_edges_distinct_colors_ok():
    g = ColoredMultigraph.of(2, 2, 2, [(0, 0, 0), (0, 0, 1)])
    assert validate(g).ok


def test_validate_bounds():
    g = ColoredMultigraph.of(1, 2, 2, [(0, 5, 0)])
    assert any(v.rule == RULE_BOUNDS for v in validate(g).violations)
    g = ColoredMultigraph.of(1, 2, 2, [(0, 0, 3)])
    assert any(v.rule == RULE_BOUNDS for v in validate(g).violations)


def test_validate_counts_short_color(i2):
    g = delete_vertex(i2, Side.LEFT, 0)
    report = validate(g, require_counts=True)
    assert any(v.rule == RULE_COUNTS for v in report.violations)
    assert validate(g).ok  # properness alone is fine


def _counts_details(g):
    return [v.detail for v in validate(g, require_counts=True).violations if v.rule == RULE_COUNTS]


def test_validate_reports_all_empty_colors_once():
    report = validate(ColoredMultigraph.of(5000, 1, 1, []), require_counts=True)
    assert [(v.rule, v.detail, v.edge_indices) for v in report.violations] == [
        (RULE_COUNTS, "5000 colors have 0 edges, expected 5001 (lowest: color 0)", ()),
    ]


def test_validate_counts_text_in_color_order():
    # Color 0 is full; 1 is short; 2 is the one empty color.
    g = ColoredMultigraph.of(
        3, 4, 4, [(u, u, 0) for u in range(4)] + [(0, 1, 1), (1, 0, 1)]
    )
    assert _counts_details(g) == [
        "color 1 has 2 edges, expected 4",
        "color 2 has 0 edges, expected 4",
    ]
    # Colors 1 and 3 empty, 0 and 2 short; the empty ones are reported
    # together at the place of the lowest.
    g = ColoredMultigraph.of(4, 5, 5, [(0, 0, 0), (1, 1, 2)])
    assert _counts_details(g) == [
        "color 0 has 1 edges, expected 5",
        "2 colors have 0 edges, expected 5 (lowest: color 1)",
        "color 2 has 1 edges, expected 5",
    ]


def test_validate_reports_all_violations():
    g = ColoredMultigraph.of(2, 2, 2, [(0, 0, 0), (0, 1, 0), (1, 9, 1)])
    rules = {v.rule for v in validate(g, require_counts=True).violations}
    assert RULE_PROPERNESS in rules
    assert RULE_BOUNDS in rules
    assert RULE_COUNTS in rules


def test_require_valid_raises_first_violation(i2):
    require_valid(i2, require_counts=True)
    short = delete_vertex(i2, Side.LEFT, 0)
    require_valid(short)
    with pytest.raises(ValueError, match="^invalid graph: color 0 has 2 edges, expected 3$"):
        require_valid(short, require_counts=True)
    bad = ColoredMultigraph.of(2, 2, 2, [(0, 0, 0), (0, 1, 0), (1, 9, 1)])
    first = validate(bad).violations[0].detail
    with pytest.raises(ValueError, match=f"^invalid graph: {re.escape(first)}$"):
        require_valid(bad)


@given(proper_graphs())
def test_validate_agrees_with_definition(g):
    # Strategy output is proper by construction; duplicating any edge's left
    # endpoint within its color class must flip the verdict.
    assert validate(g).ok
    if g.edges:
        e = g.edges[0]
        broken = ColoredMultigraph.of(
            g.n, g.left_size, g.right_size,
            [tuple(x) for x in g.edges] + [(e.u, (e.v + 1) % g.right_size, e.c)],
        )
        assert any(v.rule == RULE_PROPERNESS for v in validate(broken).violations)


def test_incidence_helpers(i2):
    assert incident_edges(i2, Side.LEFT, 0) == [Edge(0, 0, 0), Edge(0, 1, 1)]
    assert colors_at(i2, Side.LEFT, 0) == {0, 1}
    assert colors_at(i2, Side.RIGHT, 2) == {0, 1}
    assert degree(i2, Side.RIGHT, 0) == 2
    with pytest.raises(ValueError):
        incident_edges(i2, Side.LEFT, 3)
    with pytest.raises(ValueError):
        degree(i2, Side.RIGHT, -1)


def test_delete_color_recolors_densely(i2):
    g = delete_color(i2, 0)
    assert g.n == 1
    assert all(e.c == 0 for e in g.edges)
    assert sorted(g.edges) == [Edge(0, 1, 0), Edge(1, 2, 0), Edge(2, 0, 0)]
    with pytest.raises(ValueError):
        delete_color(i2, 2)


def test_delete_vertex_reindexes(i2):
    g = delete_vertex(i2, Side.LEFT, 1)
    assert g.left_size == 2
    # old left 2 becomes left 1
    assert Edge(1, 2, 0) in g.edges
    assert all(e.u < 2 for e in g.edges)
    h = delete_vertex(i2, Side.RIGHT, 0)
    assert h.right_size == 2
    assert Edge(2, 1, 1) not in h.edges  # nothing shifted onto a live slot wrongly
    assert Edge(0, 0, 1) in h.edges  # old (0,1,1)
    with pytest.raises(ValueError):
        delete_vertex(i2, Side.LEFT, 7)


@given(proper_graphs(min_side=2))
def test_delete_vertex_preserves_properness(g):
    assert validate(delete_vertex(g, Side.LEFT, 0)).ok
    assert validate(delete_vertex(g, Side.RIGHT, g.right_size - 1)).ok


def test_is_rainbow_matching(i2):
    good = Matching.of([(0, 0, 0), (1, 2, 1)])
    assert is_rainbow_matching(i2, good, 2)
    assert not is_rainbow_matching(i2, good, 3)  # wrong size
    absent = Matching.of([(0, 0, 0), (2, 1, 1)])
    assert not is_rainbow_matching(i2, absent, 2)  # edge not in graph
    clash_v = Matching.of([(0, 0, 0), (1, 0, 1)])
    assert not is_rainbow_matching(i2, clash_v, 2)
    clash_c = Matching.of([(0, 0, 0), (1, 1, 0)])
    assert not is_rainbow_matching(i2, clash_c, 2)
    assert is_rainbow_matching(i2, Matching.of([]), 0)


def test_canonical_edges_sorted():
    es = canonical_edges([Edge(2, 0, 1), Edge(0, 0, 0), Edge(1, 2, 0)])
    assert es == (Edge(0, 0, 0), Edge(1, 2, 0), Edge(2, 0, 1))


def test_json_round_trip(i2):
    text = to_canonical_json(i2)
    assert "\n" not in text
    g = from_json(text)
    assert g.n == i2.n and g.left_size == i2.left_size
    assert canonical_edges(g.edges) == canonical_edges(i2.edges)
    assert to_canonical_json(g) == text


def test_digest_pinned(i2):
    assert canonical_digest(i2) == I2_DIGEST


def test_digest_ignores_edge_order(i2):
    shuffled = ColoredMultigraph.of(2, 3, 3, list(reversed([tuple(e) for e in i2.edges])))
    assert canonical_digest(shuffled) == canonical_digest(i2)


@given(counts_valid_graphs())
def test_round_trip_any(g):
    assert canonical_digest(from_json(to_canonical_json(g))) == canonical_digest(g)


# validate digests invalid graphs too, so any int may stand anywhere.
indices = st.integers(-3, 12) | st.integers(-(10**12), 10**12) | st.sampled_from([-(10**12), 10**12])


@given(indices, indices, indices, st.lists(st.tuples(indices, indices, indices), max_size=10))
@example(0, 0, 0, [])
@example(-1, 10**12, -(10**12), [(10**12, -1, 0), (-(10**12), 0, 10**12)])
def test_canonical_line_is_the_compact_encoding_of_the_dict(n, left, right, edges):
    g = ColoredMultigraph.of(n, left, right, edges)
    assert to_canonical_json(g) == compact_json(to_dict(g))


def test_from_dict_malformed():
    with pytest.raises(ValueError):
        from_dict({"n": 1, "left": 2, "edges": [[0, 0, 0]]})
    with pytest.raises(ValueError):
        from_dict({"n": 1, "left": 2, "right": 2, "edges": [[0, 0]]})
    with pytest.raises(ValueError):
        from_dict({"n": "x", "left": 2, "right": 2, "edges": []})
    with pytest.raises(ValueError, match="edges must be a list"):
        from_dict({"n": 1, "left": 2, "right": 2, "edges": {}})


def test_read_instances_single_and_jsonl(i2):
    single = list(read_instances(to_canonical_json(i2).splitlines()))
    assert len(single) == 1
    two = list(read_instances((to_canonical_json(i2) + "\n" + to_canonical_json(i2) + "\n").splitlines()))
    assert len(two) == 2
    pretty = list(read_instances(json.dumps(to_dict(i2), indent=2).splitlines()))
    assert len(pretty) == 1
    assert canonical_digest(pretty[0]) == canonical_digest(i2)


def test_read_instances_yields_before_reading_on(i2):
    def lines():
        yield to_canonical_json(i2)
        raise AssertionError("line 2 pulled before graph 1 was taken")

    assert canonical_digest(next(read_instances(lines()))) == canonical_digest(i2)


def test_from_dict_rejects_bool_sizes():
    # bool subclasses int, so it must be excluded explicitly
    for key in ("n", "left", "right"):
        d = {"n": 1, "left": 2, "right": 2, "edges": []}
        d[key] = True
        with pytest.raises(ValueError):
            from_dict(d)


def test_from_dict_rejects_bool_edge_entries():
    with pytest.raises(ValueError):
        from_dict({"n": 1, "left": 2, "right": 2, "edges": [[False, 0, 0], [True, 1, 0]]})


def _i2_with(field: str, value: int) -> ColoredMultigraph:
    """i2 with one coordinate of its second edge, (1, 1, 0), replaced."""
    edges = [Edge(*e) for e in I2_EDGES]
    edges[1] = edges[1]._replace(**{field: value})
    return ColoredMultigraph(2, 3, 3, tuple(edges))


# Each breaks a clean graph in one place, so one column check alone decides.
ONE_RULE_BROKEN = {
    "u-negative": _i2_with("u", -1),
    "u-at-bound": _i2_with("u", 3),
    "v-negative": _i2_with("v", -1),
    "v-at-bound": _i2_with("v", 3),
    "c-negative": _i2_with("c", -1),
    "c-at-bound": _i2_with("c", 2),
    "left-properness": _i2_with("u", 0),
    "right-properness": _i2_with("v", 0),
    "negative-n": ColoredMultigraph(-1, 3, 3, ()),
    "negative-left": ColoredMultigraph(0, -1, 3, ()),
    "negative-right": ColoredMultigraph(0, 3, -1, ()),
    "no-edges": ColoredMultigraph(1, 2, 2, ()),
    # color sizes 4 and 2: uneven, though they add up to n(n + 1)
    "uneven-counts": ColoredMultigraph.of(
        2, 4, 4, [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0), (0, 1, 1), (1, 0, 1)]
    ),
}


@pytest.mark.parametrize("require_counts", [False, True])
@pytest.mark.parametrize("name", sorted(ONE_RULE_BROKEN))
def test_validate_matches_the_reference_with_one_rule_broken(name, require_counts):
    g = ONE_RULE_BROKEN[name]
    assert validate(g, require_counts) == reference_validate(g, require_counts)
    assert not validate(g, True).ok


@given(perturbed_graphs(), st.booleans())
def test_validate_matches_the_edge_by_edge_reference(g, require_counts):
    assert validate(g, require_counts) == reference_validate(g, require_counts)


def _parsed(parse, d):
    try:
        return parse(d)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(perturbed_dicts())
def test_from_dict_matches_the_edge_by_edge_reference(d):
    assert _parsed(from_dict, d) == _parsed(reference_from_dict, d)
