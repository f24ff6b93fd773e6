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

The rule has one definition, ``shift_arrays``, which rewrites a graph held
as three parallel int lists in place: a Move re-points one near endpoint and
a Swap exchanges two far endpoints.  The reduction runs on such lists for
its whole length; ``shift`` builds its graph and rewrite records from the
kernel's log of touched edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import ColoredMultigraph, Edge, Side, edge_lists, new_edge, require_valid


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
    us, vs, cs = map(list, zip(*g.edges)) if g.edges else ([], [], [])
    near, far = (us, vs) if side is Side.LEFT else (vs, us)
    log: list[tuple[int, int | None]] = []
    moves, swaps = shift_arrays(near, far, cs, pivot, donor, log)

    before = g.edges
    after = list(before)
    for i, j in log:
        after[i] = new_edge((us[i], vs[i], cs[i]))
        if j is not None:
            after[j] = new_edge((us[j], vs[j], cs[j]))
    rewrites = tuple(
        ShiftRewrite(RewriteKind.MOVE, cs[i], (before[i],), (after[i],))
        if j is None
        else ShiftRewrite(RewriteKind.SWAP, cs[i], (before[j], before[i]), (after[j], after[i]))
        for i, j in log
    )
    out = ColoredMultigraph(g.n, g.left_size, g.right_size, tuple(after))
    return ShiftOutcome(out, rewrites, moves, swaps)


def shift_arrays(
    near: list[int],
    far: list[int],
    cs: list[int],
    pivot: int,
    donor: int,
    log: list[tuple[int, int | None]] | None = None,
) -> tuple[int, int]:
    """The Move/Swap rule, applied in place to a graph held as parallel
    lists: edge ``i`` joins ``near[i]``, a vertex of the shifted side, to
    ``far[i]`` on the other side, in color ``cs[i]``.

    A Move re-points the donor edge's near endpoint to the pivot; a Swap
    exchanges the far endpoints of the donor edge and of the pivot's edge of
    the same color.  Colors never change.  Returns ``(moves, swaps)``; with
    ``log``, appends ``(i, None)`` per Move and ``(i, j)`` per Swap, ``i``
    the donor edge and ``j`` the pivot's, in ascending color order.
    """
    at_pivot: dict[int, int] = {}
    donor_edges: list[int] = []
    for i, x in enumerate(near):
        if x == pivot:
            at_pivot[cs[i]] = i
        elif x == donor:
            donor_edges.append(i)
    if log is not None:
        donor_edges.sort(key=cs.__getitem__)
    moves = 0
    for i in donor_edges:
        j = at_pivot.get(cs[i])
        if j is None:
            near[i] = pivot
            moves += 1
        else:
            far[i], far[j] = far[j], far[i]
        if log is not None:
            log.append((i, j))
    return moves, len(donor_edges) - moves
