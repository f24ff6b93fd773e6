from __future__ import annotations

import pytest
from hypothesis import given, settings

from hypothesis import strategies as st

from rainbowmatch.graph import ColoredMultigraph, Edge, Side, validate
from rainbowmatch.shifting import RewriteKind, ShiftRewrite, shift
from conftest import snapshot_shift
from reference import (
    colors_at,
    degree,
    edges_by_color,
    mirror,
    mirrored_edges,
    reference_shift,
    shift_applicable,
)
from strategies import shift_cases


def test_move_golden():
    g = ColoredMultigraph.of(1, 2, 2, [(1, 0, 0)])
    outcome = shift(g, 0, 1)
    assert outcome.moves == 1 and outcome.swaps == 0
    assert sorted(outcome.graph.edges) == [Edge(0, 0, 0)]
    rw = outcome.rewrites[0]
    assert rw.kind is RewriteKind.MOVE
    assert rw.removed == (Edge(1, 0, 0),)
    assert rw.added == (Edge(0, 0, 0),)


def test_swap_golden():
    g = ColoredMultigraph.of(1, 2, 2, [(0, 0, 0), (1, 1, 0)])
    outcome = shift(g, 0, 1)
    assert outcome.moves == 0 and outcome.swaps == 1
    assert sorted(outcome.graph.edges) == [Edge(0, 1, 0), Edge(1, 0, 0)]


def test_mixed_golden(i2):
    # Pivot 0 holds both colors, so both donor edges swap.
    outcome = shift(i2, 0, 1)
    assert outcome.swaps == 2 and outcome.moves == 0
    assert Edge(0, 1, 0) in outcome.graph.edges  # 0 took donor's right endpoint
    assert Edge(1, 0, 0) in outcome.graph.edges
    assert Edge(0, 2, 1) in outcome.graph.edges
    assert Edge(1, 1, 1) in outcome.graph.edges


def test_donor_without_edges_is_noop():
    g = ColoredMultigraph.of(1, 3, 2, [(0, 0, 0)])
    outcome = shift(g, 1, 2)
    assert outcome.rewrites == ()
    assert outcome.graph.edges == g.edges


def test_shift_applicable(i2):
    # Every vertex of a normal-form instance carries every color.
    assert not shift_applicable(i2, 0)
    g = ColoredMultigraph.of(2, 2, 2, [(0, 0, 0), (1, 1, 1)])
    assert shift_applicable(g, 0)


def test_shift_argument_errors(i2):
    with pytest.raises(ValueError):
        shift(i2, 0, 0)
    with pytest.raises(ValueError):
        shift(i2, 0, 9)
    with pytest.raises(ValueError):
        shift(i2, -1, 1)
    improper = ColoredMultigraph.of(1, 2, 2, [(0, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        shift(improper, 0, 1)


@given(shift_cases())
@settings(max_examples=300)
def test_shift_preserves_properness_and_counts(case):
    g, pivot, donor = case
    before = {c: len(es) for c, es in edges_by_color(g).items()}
    outcome = shift(g, pivot, donor)
    assert validate(outcome.graph).ok
    after = {c: len(es) for c, es in edges_by_color(outcome.graph).items()}
    assert before == after
    assert outcome.graph.left_size == g.left_size
    assert outcome.graph.right_size == g.right_size


@given(shift_cases())
@settings(max_examples=300)
def test_shift_degree_law(case):
    g, pivot, donor = case
    outcome = shift(g, pivot, donor)
    h = outcome.graph
    # Moves transfer one edge donor -> pivot; swaps touch no degree.
    assert degree(h, Side.LEFT, pivot) == degree(g, Side.LEFT, pivot) + outcome.moves
    assert degree(h, Side.LEFT, donor) == degree(g, Side.LEFT, donor) - outcome.moves
    for v in range(g.left_size):
        if v not in (pivot, donor):
            assert degree(h, Side.LEFT, v) == degree(g, Side.LEFT, v)
    for v in range(g.right_size):
        assert degree(h, Side.RIGHT, v) == degree(g, Side.RIGHT, v)


@given(shift_cases())
@settings(max_examples=300)
def test_sequential_equals_snapshot(case):
    g, pivot, donor = case
    outcome = shift(g, pivot, donor)
    assert sorted(outcome.graph.edges) == sorted(snapshot_shift(g, pivot, donor))


@given(shift_cases())
@settings(max_examples=200)
def test_pivot_color_set_grows_to_donor_union(case):
    g, pivot, donor = case
    h = shift(g, pivot, donor).graph
    want = colors_at(g, Side.LEFT, pivot) | colors_at(g, Side.LEFT, donor)
    assert colors_at(h, Side.LEFT, pivot) == want


@given(shift_cases(side=Side.RIGHT))
@settings(max_examples=300)
def test_right_side_shift_equals_mirrored_left_shift(case):
    g, pivot, donor = case
    ref = shift(mirror(g), pivot, donor)
    out = shift(g, pivot, donor, Side.RIGHT)
    assert out.graph == mirror(ref.graph)  # same edges in the same order
    assert (out.moves, out.swaps) == (ref.moves, ref.swaps)
    assert out.rewrites == tuple(
        ShiftRewrite(r.kind, r.color, mirrored_edges(r.removed), mirrored_edges(r.added))
        for r in ref.rewrites
    )


@given(
    st.sampled_from(list(Side)).flatmap(
        lambda side: st.tuples(st.just(side), shift_cases(side=side))
    )
)
@settings(max_examples=400)
def test_array_kernel_matches_reference_shift(sided_case):
    # shift runs the in-place array kernel; the reference rewrites Edge
    # values on the left side and mirrors for the right.
    side, (g, pivot, donor) = sided_case
    out = shift(g, pivot, donor, side)
    ref = reference_shift(g, pivot, donor, side)
    assert out.graph == ref.graph  # same edges in the same order
    assert out.rewrites == ref.rewrites
    assert (out.moves, out.swaps) == (ref.moves, ref.swaps)
