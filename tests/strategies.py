"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from rainbowmatch.generators import GenKind, GenSpec, gen_random
from rainbowmatch.graph import ColoredMultigraph, Side


@st.composite
def proper_graphs(draw, max_n: int = 4, min_side: int = 1, max_extra: int = 3):
    """Properly colored multigraph with arbitrary (possibly short) color
    classes; per-color counts need not equal n + 1."""
    n = draw(st.integers(1, max_n))
    left = draw(st.integers(min_side, n + max_extra))
    right = draw(st.integers(min_side, n + max_extra))
    edges = []
    for c in range(n):
        k = draw(st.integers(0, min(left, right, n + 1)))
        us = draw(st.permutations(list(range(left))))[:k]
        vs = draw(st.permutations(list(range(right))))[:k]
        edges.extend((u, v, c) for u, v in zip(us, vs))
    return ColoredMultigraph.of(n, left, right, edges)


@st.composite
def counts_valid_graphs(draw, max_n: int = 3, max_extra: int = 3):
    """Instance satisfying the n + 1 edges per color requirement."""
    n = draw(st.integers(1, max_n))
    left = draw(st.integers(n + 1, n + max_extra))
    right = draw(st.integers(n + 1, n + max_extra))
    seed = draw(st.integers(0, 10**6))
    return gen_random(GenSpec(GenKind.RANDOM, n, left, right, seed))


@st.composite
def shift_cases(draw, max_n: int = 4, side: Side = Side.LEFT):
    """A counts-valid graph plus a (pivot, donor) pair on ``side``."""
    g = draw(counts_valid_graphs(max_n=max_n))
    size = g.side_size(side)
    pivot = draw(st.integers(0, size - 1))
    donor = draw(st.integers(0, size - 2))
    if donor >= pivot:
        donor += 1
    return g, pivot, donor
