"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from rainbowmatch.generators import GenKind, GenSpec, gen_random
from rainbowmatch.graph import ColoredMultigraph, Side, to_dict


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
def padded_graphs(draw):
    """A counts-valid graph with up to three isolated vertices inserted on
    each side, order kept, and the new index of each old vertex per side."""
    g = draw(counts_valid_graphs())

    def spread(size):
        total = size + draw(st.integers(0, 3))
        return total, sorted(draw(st.permutations(range(total)))[:size])

    left, lpos = spread(g.left_size)
    right, rpos = spread(g.right_size)
    padded = ColoredMultigraph.of(g.n, left, right, [(lpos[u], rpos[v], c) for u, v, c in g.edges])
    return g, padded, lpos, rpos


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


@st.composite
def perturbed_graphs(draw):
    """A proper or counts-valid graph after a few edits that may break any
    rule: an edge coordinate set on or beyond a bound or far away, an edge
    recolored, made to share an endpoint with another edge of its color,
    duplicated or dropped, and one dimension moved by one or made negative.
    Zero edits keep it clean; one edit often breaks one rule."""
    g = draw(counts_valid_graphs() | proper_graphs())
    edges = list(g.edges)
    bounds = {"u": g.left_size, "v": g.right_size, "c": g.n}
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        if not edges:
            break
        i = draw(st.integers(0, len(edges) - 1))
        op = draw(st.sampled_from(["set", "recolor", "collide", "duplicate", "drop"]))
        same_color = [e for e in edges if e.c == edges[i].c and e != edges[i]]
        if op == "collide" and same_color:
            field = draw(st.sampled_from("uv"))
            edges[i] = edges[i]._replace(**{field: getattr(draw(st.sampled_from(same_color)), field)})
        elif op in ("set", "recolor"):
            field = "c" if op == "recolor" else draw(st.sampled_from("uvc"))
            size = bounds[field]
            near = st.sampled_from([-1, size]) if op == "set" else st.integers(0, max(size - 1, 0))
            value = draw(near | st.integers(-2, size + 2) | st.integers(-(10**12), 10**12))
            edges[i] = edges[i]._replace(**{field: value})
        elif op == "duplicate":
            edges.insert(draw(st.integers(0, len(edges))), edges[i])
        else:
            del edges[i]
    dims = [g.n, g.left_size, g.right_size]
    moved = draw(st.sampled_from([None, None, 0, 1, 2]))
    if moved is not None:
        dims[moved] = draw(st.sampled_from([dims[moved] - 1, dims[moved] + 1, -1]))
    return ColoredMultigraph(*dims, tuple(edges))


scalars = st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=3)
junk = (
    scalars
    | st.lists(st.integers(-2, 9) | scalars, max_size=4)
    | st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    | st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2)
)


@st.composite
def perturbed_dicts(draw):
    """The dict form of a ``perturbed_graphs`` instance, edited to break the
    parser: one coordinate of an edge entry, a whole entry or a field
    replaced by another value, an entry grown or shrunk, a key removed, or
    the whole instance replaced."""
    d = to_dict(draw(perturbed_graphs()))
    edges = d["edges"]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        where = draw(st.sampled_from(["coordinate", "entry", "length", "field", "key", "whole"]))
        i = draw(st.integers(0, len(edges) - 1)) if edges else None
        triple = i is not None and type(edges[i]) is list and len(edges[i]) == 3
        if where == "coordinate" and triple:
            edges[i][draw(st.integers(0, 2))] = draw(scalars)
        elif where == "entry" and edges:
            edges[i] = draw(junk)
        elif where == "length" and triple:
            edges[i] = edges[i][:2] if draw(st.booleans()) else [*edges[i], 0]
        elif where == "field":
            d[draw(st.sampled_from(["n", "left", "right", "edges"]))] = draw(junk)
        elif where == "key":
            d.pop(draw(st.sampled_from(["n", "left", "right", "edges"])), None)
        elif where == "whole":
            return draw(junk)
    return d
