"""Reference definitions the package itself does not need.

Each is a plain, independent reading of a notion the package computes in a
faster form (bitmasks, one side-aware pass, a pruned search); tests compare
the package against these.
"""

from __future__ import annotations

from rainbowmatch.graph import (
    ColoredMultigraph,
    Edge,
    Matching,
    Side,
    _check_vertex,
    require_valid,
)
from rainbowmatch.oracle import OracleResult
from rainbowmatch.reduction import compact_isolated

NAIVE_EDGE_LIMIT = 24


def edges_by_color(g: ColoredMultigraph) -> dict[int, list[Edge]]:
    """Group edges by color, preserving edge-list order within each color."""
    out: dict[int, list[Edge]] = {}
    for e in g.edges:
        out.setdefault(e.c, []).append(e)
    return out


def incident_edges(g: ColoredMultigraph, side: Side, vertex: int) -> list[Edge]:
    _check_vertex(g, side, vertex)
    if side is Side.LEFT:
        return [e for e in g.edges if e.u == vertex]
    return [e for e in g.edges if e.v == vertex]


def colors_at(g: ColoredMultigraph, side: Side, vertex: int) -> set[int]:
    """The set of colors on edges incident to ``vertex``; by properness its
    size equals the vertex degree."""
    return {e.c for e in incident_edges(g, side, vertex)}


def degree(g: ColoredMultigraph, side: Side, vertex: int) -> int:
    return len(incident_edges(g, side, vertex))


def mirror(g: ColoredMultigraph) -> ColoredMultigraph:
    """Exchange the two parts; an involution."""
    return ColoredMultigraph(
        g.n,
        g.right_size,
        g.left_size,
        tuple(Edge(e.v, e.u, e.c) for e in g.edges),
    )


def shift_applicable(g: ColoredMultigraph, pivot: int) -> bool:
    """True iff the pivot's color spectrum is not yet full.

    Properness caps a vertex at n distinct colors, so "not full" is
    equivalently "fewer than n".
    """
    return len(colors_at(g, Side.LEFT, pivot)) < g.n


def is_normal_form(g: ColoredMultigraph) -> bool:
    """True iff each side has exactly n + 1 non-isolated vertices (isolated
    vertices are ignored; compaction removes them)."""
    require_valid(g, require_counts=True)
    compacted, _, _ = compact_isolated(g)
    return compacted.left_size == g.n + 1 and compacted.right_size == g.n + 1


def max_rainbow_naive(g: ColoredMultigraph) -> OracleResult:
    """Edge-major subset enumeration, for cross-validating ``max_rainbow``.

    Walks the include/exclude tree over the edge list, abandoning a subset as
    soon as it violates the rainbow-matching property (any extension would
    fail the filter too).  No color grouping, no bound pruning: deliberately
    a different algorithm from the color-major search.
    """
    require_valid(g)
    m = len(g.edges)
    if m > NAIVE_EDGE_LIMIT:
        raise ValueError(
            f"naive enumeration capped at {NAIVE_EDGE_LIMIT} edges (got {m}); use max_rainbow"
        )
    edges = g.edges
    best = 0
    best_pick: tuple[Edge, ...] = ()
    nodes = 0
    picked: list[Edge] = []

    def walk(i: int, used_l: int, used_r: int, used_c: int) -> None:
        nonlocal best, best_pick, nodes
        nodes += 1
        if len(picked) > best:
            best = len(picked)
            best_pick = tuple(picked)
        if i == m:
            return
        e = edges[i]
        if not (used_l >> e.u) & 1 and not (used_r >> e.v) & 1 and not (used_c >> e.c) & 1:
            picked.append(e)
            walk(i + 1, used_l | (1 << e.u), used_r | (1 << e.v), used_c | (1 << e.c))
            picked.pop()
        walk(i + 1, used_l, used_r, used_c)

    walk(0, 0, 0, 0)
    return OracleResult(best, Matching(best_pick), nodes)
