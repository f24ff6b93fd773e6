from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch.generators import GenKind, GenSpec, enumerate_instances
from rainbowmatch.graph import ColoredMultigraph, is_rainbow_matching
from rainbowmatch.oracle import max_rainbow, rainbow_pairs
from reference import NAIVE_EDGE_LIMIT, delete_color, max_rainbow_naive
from strategies import counts_valid_graphs, proper_graphs


def test_i2_max(i2):
    result = max_rainbow(i2)
    assert result.max_size == 2
    assert is_rainbow_matching(i2, result.witness, 2)
    assert result.nodes_explored > 0


def test_empty_graph():
    g = ColoredMultigraph.of(1, 1, 1, [])
    assert max_rainbow(g).max_size == 0
    assert max_rainbow_naive(g).max_size == 0


def test_single_edge():
    g = ColoredMultigraph.of(1, 1, 1, [(0, 0, 0)])
    assert max_rainbow(g).max_size == 1


def test_blocked_colors():
    # Both colors hit the same vertex pair: only one edge can be used.
    g = ColoredMultigraph.of(2, 1, 1, [(0, 0, 0), (0, 0, 1)])
    assert max_rainbow(g).max_size == 1
    assert max_rainbow_naive(g).max_size == 1


def test_huge_vertex_indices_get_dense_bits():
    # The used vertices are bits of an int; a bit per declared vertex would
    # need gigabytes here.  The search sees only which edges share a vertex,
    # so it runs as on the same graph with vertex 1 in place of 10^11 - 1.
    big = 10**11
    edges = [(1, 0, 0), (0, 1, 0), (0, 1, 1)]
    relabel = lambda x: big - 1 if x == 1 else x
    small = max_rainbow(ColoredMultigraph.of(2, 2, 2, edges))
    result = max_rainbow(
        ColoredMultigraph.of(2, big, big, [(relabel(u), relabel(v), c) for u, v, c in edges])
    )
    assert result.max_size == small.max_size == 2
    assert result.nodes_explored == small.nodes_explored
    assert [tuple(e) for e in result.witness.edges] == [
        (relabel(u), relabel(v), c) for u, v, c in small.witness.edges
    ]


def test_improper_rejected():
    g = ColoredMultigraph.of(1, 2, 2, [(0, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        max_rainbow(g)
    with pytest.raises(ValueError):
        max_rainbow_naive(g)


@given(proper_graphs(max_n=3))
@settings(max_examples=150)
def test_witness_is_always_valid(g):
    result = max_rainbow(g)
    assert is_rainbow_matching(g, result.witness, result.max_size)


@given(proper_graphs(max_n=3))
@settings(max_examples=150)
def test_oracles_agree(g):
    if len(g.edges) <= NAIVE_EDGE_LIMIT:
        assert max_rainbow(g).max_size == max_rainbow_naive(g).max_size


def test_oracles_agree_on_enumeration_sample():
    for i, g in enumerate(enumerate_instances(GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3))):
        assert max_rainbow(g).max_size == max_rainbow_naive(g).max_size


def test_empty_color_classes_change_no_answer():
    # An empty class inserted before, between or after the others leaves the
    # maximum and the witness as they were, and the naive checker agrees.
    for g in islice(enumerate_instances(GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)), 60):
        base = max_rainbow(g)
        for empty in range(g.n + 1):
            edges = [(e.u, e.v, e.c + (e.c >= empty)) for e in g.edges]
            h = ColoredMultigraph.of(g.n + 1, g.left_size, g.right_size, edges)
            result = max_rainbow(h)
            assert result.max_size == base.max_size == max_rainbow_naive(h).max_size
            assert [(e.u, e.v, e.c - (e.c > empty)) for e in result.witness.edges] == [
                tuple(e) for e in base.witness.edges
            ]


def test_naive_edge_cap():
    edges = [(u, (u + c) % 7, c) for c in range(4) for u in range(7)]
    g = ColoredMultigraph.of(4, 7, 7, edges)
    assert len(g.edges) == 28
    with pytest.raises(ValueError):
        max_rainbow_naive(g)


@given(counts_valid_graphs())
@settings(max_examples=100)
def test_has_rainbow_consistent_with_max(g):
    m = max_rainbow(g).max_size
    for k in range(0, min(g.n, g.left_size, g.right_size) + 2):
        result = max_rainbow(g, target=k)
        assert result.max_size == min(m, k)
        found = result.max_size == k
        assert found == (k <= m)
        if found and k > 0:
            assert is_rainbow_matching(g, result.witness, k)


def test_has_rainbow_trivial(i2):
    m = max_rainbow(i2).max_size
    result = max_rainbow(i2, target=0)
    assert result.max_size == min(m, 0)
    assert len(result.witness) == 0
    result = max_rainbow(i2, target=5)
    assert result.max_size == min(m, 5)
    assert result.max_size < 5


def test_target_is_an_early_exit_of_the_same_search(i2):
    full = max_rainbow(i2)
    early = max_rainbow(i2, target=full.max_size)
    assert early.max_size == full.max_size
    assert early.nodes_explored <= full.nodes_explored
    assert max_rainbow(i2, target=full.max_size + 3) == full


def test_negative_target_is_rejected(i2):
    with pytest.raises(ValueError, match="target"):
        max_rainbow(i2, target=-1)


def test_rainbow_pairs_match_oracle(i2):
    pairs = rainbow_pairs(i2)
    assert pairs, "a 2-matching exists so pairs must be found"
    from rainbowmatch.graph import Matching

    for a, b in pairs:
        assert is_rainbow_matching(i2, Matching((a, b)), 2)


@given(counts_valid_graphs(max_n=2))
@settings(max_examples=100)
def test_rainbow_pairs_exhaustive(g):
    if g.n != 2:
        return
    pairs = rainbow_pairs(g)
    assert (len(pairs) > 0) == (max_rainbow(g).max_size >= 2)


def test_rainbow_pairs_wrong_n(i2):
    with pytest.raises(ValueError):
        rainbow_pairs(delete_color(i2, 0))


@st.composite
def two_colors_of_three_edges(draw):
    left = draw(st.integers(3, 5))
    right = draw(st.integers(3, 5))
    edges = []
    for c in range(2):
        us = draw(st.permutations(range(left)))[:3]
        vs = draw(st.permutations(range(right)))[:3]
        edges.extend((u, v, c) for u, v in zip(us, vs))
    return ColoredMultigraph.of(2, left, right, edges)


@given(two_colors_of_three_edges())
@settings(max_examples=300)
def test_two_colors_of_three_edges_have_a_rainbow_pair(g):
    # Each end of a color-0 edge meets at most one color-1 edge, so one of
    # the three color-1 edges avoids it, so an n = 2 base never fails.
    assert rainbow_pairs(g)
