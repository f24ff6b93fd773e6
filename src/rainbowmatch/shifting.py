"""Edge shifting: rewrite a donor vertex's edges onto a pivot vertex.

Pivot and donor are vertices of one side, left or right; a rewrite replaces
that side's endpoint and keeps the far endpoint and the color.  For each
donor edge, taken in ascending color order against the current working graph:

* Move: the pivot has no edge of that color: the donor edge is re-attached
  to the pivot, keeping its far endpoint and color.
* Swap: the pivot already has exactly one edge of that color (properness):
  the two edges exchange far endpoints.

Each color is touched at most once and a rule only inspects edges of its own
color, so this sequential pass equals the all-at-once reading; a dedicated
test asserts that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import ColoredMultigraph, Edge, Side, edge_lists, require_valid


class RewriteKind(str, Enum):
    MOVE = "move"
    SWAP = "swap"


@dataclass(frozen=True)
class ShiftRewrite:
    """One applied rule instance, in the shifted graph's coordinates.

    Move: removed=[(donor, b, c)], added=[(pivot, b, c)].
    Swap: removed=[(pivot, g, c), (donor, a, c)], added=[(pivot, a, c), (donor, g, c)].
    A right-side rewrite is the same with each edge read as (v, u, c).
    """

    kind: RewriteKind
    color: int
    removed: tuple[Edge, ...]
    added: tuple[Edge, ...]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "color": self.color,
            "removed": edge_lists(self.removed),
            "added": edge_lists(self.added),
        }


@dataclass(frozen=True)
class ShiftOutcome:
    graph: ColoredMultigraph
    rewrites: tuple[ShiftRewrite, ...]
    moves: int
    swaps: int


def shift(
    g: ColoredMultigraph, pivot: int, donor: int, side: Side = Side.LEFT
) -> ShiftOutcome:
    """Apply Move/Swap rewrites for every donor edge of ``side``; all other
    edges are unchanged.  Properness and per-color edge counts are preserved."""
    if pivot == donor:
        raise ValueError("pivot and donor must be distinct")
    size = g.side_size(side)
    if not 0 <= pivot < size:
        raise ValueError(f"pivot {pivot} out of range")
    if not 0 <= donor < size:
        raise ValueError(f"donor {donor} out of range")
    require_valid(g)
    return shift_trusted(g, pivot, donor, side)


def shift_trusted(g: ColoredMultigraph, pivot: int, donor: int, side: Side) -> ShiftOutcome:
    """``shift`` without its guard: ``g`` is proper and ``pivot``, ``donor``
    are distinct vertices of ``side``, as on every graph the package built."""
    left = side is Side.LEFT
    end = 0 if left else 1  # position of the side's endpoint in an Edge

    def attach(e: Edge, vertex: int) -> Edge:
        return Edge(vertex, e.v, e.c) if left else Edge(e.u, vertex, e.c)

    work = list(g.edges)
    pivot_by_color: dict[int, int] = {e.c: i for i, e in enumerate(work) if e[end] == pivot}
    donor_edges = sorted((e.c, i) for i, e in enumerate(work) if e[end] == donor)

    rewrites: list[ShiftRewrite] = []
    moves = 0
    swaps = 0
    for c, i in donor_edges:
        e = work[i]
        j = pivot_by_color.get(c)
        if j is None:
            moved = attach(e, pivot)
            work[i] = moved
            pivot_by_color[c] = i
            rewrites.append(ShiftRewrite(RewriteKind.MOVE, c, (e,), (moved,)))
            moves += 1
        else:
            pe = work[j]
            work[j] = attach(e, pivot)
            work[i] = attach(pe, donor)
            rewrites.append(ShiftRewrite(RewriteKind.SWAP, c, (pe, e), (work[j], work[i])))
            swaps += 1

    out = ColoredMultigraph(g.n, g.left_size, g.right_size, tuple(work))
    return ShiftOutcome(out, tuple(rewrites), moves, swaps)
