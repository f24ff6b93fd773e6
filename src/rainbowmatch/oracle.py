"""Exact maximum rainbow matching search.

The search has one definition, ``max_rainbow_classes``: color-major
backtracking over a graph's color classes, with vertices as bits of two
used masks.  It may start from masks with bits already set, so a caller
that asks for a matching avoiding some vertices marks them used rather than
filtering the edges.  ``max_rainbow_edges`` groups an edge list by color for
it, and ``max_rainbow`` runs it on a graph.
"""

from __future__ import annotations

import sys
from typing import Iterator, NamedTuple, Sequence, TypeVar

from .graph import ColoredMultigraph, Edge, Matching, new_edge, require_valid
from .reduction import compact_isolated

E = TypeVar("E", bound=tuple[int, int, int])


class OracleResult(NamedTuple):
    max_size: int
    witness: Matching
    nodes_explored: int


class _TargetReached(Exception):
    """Unwinds the search once the incumbent reaches the target size."""


def max_rainbow(g: ColoredMultigraph, target: int | None = None) -> OracleResult:
    """Exact maximum via color-major backtracking.

    Non-empty colors are processed in ascending order; at each one the branches
    are every feasible edge of that color (in edge-list order) followed by a
    skip branch.  Subtrees that cannot strictly beat the incumbent are pruned,
    so the returned witness is the first maximum reached under this fixed
    order, deterministic for a given edge list.

    With ``target=k`` the search stops as soon as the incumbent reaches ``k``:
    ``max_size == min(maximum, k)`` and the witness is the first size-``k``
    matching in the same order.  ``target=0`` returns the empty matching.
    """
    require_valid(g)
    if target is not None and target < 0:
        raise ValueError("target must be non-negative")
    return max_rainbow_trusted(g, target)


def max_rainbow_trusted(g: ColoredMultigraph, target: int | None = None) -> OracleResult:
    """``max_rainbow`` without its guard: ``g`` is proper and ``target`` is
    None or non-negative, as on every graph the package built."""
    if max(g.left_size, g.right_size) > len(g.edges):
        # Used vertices are bits of an int: search a sparse graph relabeled densely.
        h, lmap, rmap = compact_isolated(g)
        r = max_rainbow_trusted(h, target)
        m = Matching(tuple([new_edge((lmap[u], rmap[v], c)) for u, v, c in r.witness.edges]))
        return OracleResult(r.max_size, m, r.nodes_explored)
    pick, nodes = max_rainbow_edges(g.edges, target)
    return OracleResult(len(pick), Matching(pick), nodes)


def max_rainbow_edges(es: Sequence[E], target: int | None = None) -> tuple[tuple[E, ...], int]:
    """The search of ``max_rainbow`` on the (u, v, c) edges ``es`` of a proper
    graph, as its witness edges and the nodes explored: ``es`` grouped by
    color for ``max_rainbow_classes``."""
    by_color: dict[int, list[E]] = {}
    for e in es:
        by_color.setdefault(e[2], []).append(e)
    return max_rainbow_classes([by_color[c] for c in sorted(by_color)], target)


def max_rainbow_classes(
    classes: Sequence[Sequence[E]], target: int | None = None, used_l: int = 0, used_r: int = 0,
) -> tuple[tuple[E, ...], int]:
    """The oracle's one search, over the color ``classes`` in the order
    given, each a list of (u, v, c) edges: its witness edges and the nodes
    explored.  Each vertex index is a bit position, so the indices must be
    dense, as in a compact graph.  Bits set in ``used_l`` and ``used_r``
    mark left and right vertices as already used, so no edge on them is
    picked: the search on the edges that avoid them, with no list filtered."""
    if target == 0:
        return (), 0
    k = len(classes)
    best = 0
    best_pick: tuple[E, ...] = ()
    nodes = 0
    picked: list[E] = []

    def search(ci: int, used_l: int, used_r: int) -> None:
        nonlocal best, best_pick, nodes
        nodes += 1
        if len(picked) > best:
            best = len(picked)
            best_pick = tuple(picked)
            if best == target:
                raise _TargetReached
        if ci == k or len(picked) + (k - ci) <= best:
            return
        for e in classes[ci]:
            if not (used_l >> e[0]) & 1 and not (used_r >> e[1]) & 1:
                picked.append(e)
                search(ci + 1, used_l | (1 << e[0]), used_r | (1 << e[1]))
                picked.pop()
        search(ci + 1, used_l, used_r)

    # The search nests one call per color class.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + k)
    try:
        search(0, used_l, used_r)
    except _TargetReached:
        pass
    finally:
        sys.setrecursionlimit(limit)
        # ``search`` holds itself through its closure: unbind it so the
        # classes it holds are freed by reference counting, not by the
        # cyclic collector.
        del search
    return best_pick, nodes


def rainbow_pairs(g: ColoredMultigraph) -> list[tuple[Edge, Edge]]:
    """All size-2 rainbow matchings of a 2-colored instance, in edge order.

    The n == 2 base case is small enough to enumerate every witness, which
    matters to callers that need a witness satisfying extra side conditions.
    """
    if g.n != 2:
        raise ValueError(f"rainbow_pairs needs n == 2 (got {g.n})")
    require_valid(g)
    return list(rainbow_pairs_trusted(g.edges))


def rainbow_pairs_trusted(es: Sequence[E]) -> Iterator[tuple[E, E]]:
    """``rainbow_pairs`` on the (u, v, c) edges of a proper 2-colored graph,
    lazily: a caller that needs only the first pairs makes only those."""
    return (
        (a, b)
        for i, a in enumerate(es)
        for b in es[i + 1 :]
        if a[2] != b[2] and a[0] != b[0] and a[1] != b[1]
    )
