"""Drive repeated shifting toward normal form.

Normal form: n + 1 edges of each color and exactly n + 1 non-isolated
vertices on each side.  The input's isolated vertices are dropped first;
each iteration then picks the side that is still too large and shifts
one donor's edges onto a deficient pivot of that side.  A donor left without
edges is deleted, which renumbers that side.  Pivot and donor are read from
the side's color masks, which the loop carries across steps: a shift gives
the pivot the moved colors and takes them from the donor, and leaves the far
side's masks as they were, since a Move keeps each far endpoint's color and
a Swap exchanges far endpoints within one color.

The loop has one definition, ``reduce_lists``, which holds the working graph
as three parallel int lists and applies ``shifting.shift_arrays`` to them in
place; colors never change.  The input and each peel's residual enter it
alike, as lists, and it returns one ``ReductionOutcome`` for both, holding
the lists: no reduction builds a graph, only a caller reading ``graph`` does.
The loop reads only the edges, so a declared vertex that carries none never
reaches a verdict: it is dropped before the first step, and the default cap
counts only the vertices left.  The trace is the one record of the steps:
H1 tests the side, pivot and donor of its first.

Whether this process always terminates in normal form is an open question the
harness measures (hypothesis H2); the driver therefore detects stalls and
caps iterations rather than assuming termination.  A stall is certified by
an exact repeated state; only states whose step swaps, and so keeps both
side sizes, can repeat, and only those are keyed.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .graph import ColoredMultigraph, Side, new_edge, require_valid
from .shifting import shift_arrays


class ReductionStatus(str, Enum):
    NORMALIZED = "normalized"
    STALLED = "stalled"
    ITERATION_CAP = "iteration_cap"


class PivotDonorPolicy(str, Enum):
    # MaxDrain: donor maximizing the number of colors absent at the pivot
    # (ties break to the highest index).  LastVertex: always the last vertex.
    MAX_DRAIN = "maxdrain"
    LAST_VERTEX = "lastvertex"


DEFAULT_POLICY = PivotDonorPolicy.MAX_DRAIN

# A graph as parallel lists (us, vs, cs), edge i being (us[i], vs[i], cs[i]);
# or, as a level's coordinates, tables from its left, right and color indices
# to the input's.
Level = tuple[Sequence[int], Sequence[int], Sequence[int]]


class ReductionStep(NamedTuple):
    side: Side
    pivot: int
    donor: int
    moves: int
    swaps: int

    def to_dict(self) -> dict:
        return {
            "side": self.side.value,
            "pivot": self.pivot,
            "donor": self.donor,
            "moves": self.moves,
            "swaps": self.swaps,
        }


class ReductionOutcome(NamedTuple):
    """Result of a reduction run on a graph of ``n`` colors: ``level``, the
    loop's lists as it left them, and ``left_map`` / ``right_map``, which
    translate their vertex indices back to the input's (compactions only
    ever delete vertices, so the translation is a plain lookup).
    """

    status: ReductionStatus
    n: int
    level: Level
    trace: tuple[ReductionStep, ...]
    left_map: tuple[int, ...]
    right_map: tuple[int, ...]

    @property
    def graph(self) -> ColoredMultigraph:
        """Built afresh from ``level`` on each read."""
        edges = tuple(map(new_edge, zip(*self.level)))
        return ColoredMultigraph(self.n, len(self.left_map), len(self.right_map), edges)

    @property
    def iterations(self) -> int:
        return len(self.trace)


def _compact(xs: list[int]) -> tuple[int, ...]:
    """Renumber the vertices in ``xs`` densely, in place; the new -> old map."""
    keep = tuple(sorted(set(xs)))
    if keep and keep[-1] >= len(keep):
        index = {old: new for new, old in enumerate(keep)}
        xs[:] = [index[x] for x in xs]
    return keep


def compact_lists(g: ColoredMultigraph) -> tuple[Level, tuple[int, ...], tuple[int, ...]]:
    """``g``'s edges as three lists, with the vertices that carry an edge
    renumbered densely, and the new -> old map of each side."""
    us, vs, cs = map(list, zip(*g.edges)) if g.edges else ([], [], [])
    return (us, vs, cs), _compact(us), _compact(vs)


def compact_isolated(
    g: ColoredMultigraph,
) -> tuple[ColoredMultigraph, tuple[int, ...], tuple[int, ...]]:
    """Drop isolated vertices on both sides, reindexing densely.

    Returns the compacted graph plus new-index -> old-index maps per side.
    """
    (us, vs, cs), left_keep, right_keep = compact_lists(g)
    if len(left_keep) == g.left_size and len(right_keep) == g.right_size:
        return g, left_keep, right_keep
    edges = tuple(map(new_edge, zip(us, vs, cs)))
    out = ColoredMultigraph(g.n, len(left_keep), len(right_keep), edges)
    return out, left_keep, right_keep


def default_max_iters(n: int, left_size: int, right_size: int) -> int:
    return 10 * n * (left_size + right_size)


def _masks(near: list[int], cs: list[int], size: int) -> list[int]:
    """Bit c of ``masks[x]`` is set iff color c is at vertex x of the side
    whose endpoint of edge i is ``near[i]``."""
    masks = [0] * size
    for x, c in zip(near, cs):
        masks[x] |= 1 << c
    return masks


def _color_masks(g: ColoredMultigraph, side: Side) -> list[int]:
    end = 0 if side is Side.LEFT else 1
    return _masks([e[end] for e in g.edges], [e[2] for e in g.edges], g.side_size(side))


def _side(left_size: int, right_size: int, target: int, alternate: Side) -> Side | None:
    """The side still larger than ``target``, ``alternate`` when both are,
    or None when neither is."""
    left_over = left_size > target
    right_over = right_size > target
    if left_over and right_over:
        return alternate
    if left_over:
        return Side.LEFT
    if right_over:
        return Side.RIGHT
    return None


def _pivot(masks: list[int], n: int) -> int:
    # A deficient vertex always exists once the side exceeds n + 1: total
    # degree is n * (n + 1), so the average degree is below n.
    full = (1 << n) - 1
    for v, mask in enumerate(masks):
        if mask != full:
            return v
    raise ValueError("no shift-applicable pivot; side already at full spectrum")


def _donor(masks: list[int], pivot: int, policy: PivotDonorPolicy) -> int:
    size = len(masks)
    if policy is PivotDonorPolicy.LAST_VERTEX:
        last = size - 1
        return last if last != pivot else last - 1
    absent = ~masks[pivot]
    best = donor = -1
    for v, mask in enumerate(masks):
        drain = (mask & absent).bit_count()
        if drain >= best and v != pivot:
            best, donor = drain, v
    return donor


def pick_donor(
    g: ColoredMultigraph, pivot: int, policy: PivotDonorPolicy, side: Side = Side.LEFT
) -> int:
    return _donor(_color_masks(g, side), pivot, policy)


def reduce_to_normal_form(
    g: ColoredMultigraph,
    policy: PivotDonorPolicy = DEFAULT_POLICY,
    max_iters: int | None = None,
) -> ReductionOutcome:
    """Repeatedly compact and shift until both sides reach n + 1 vertices.

    The procedure is a deterministic function of the working graph and the
    side-alternation state, so revisiting a state proves it loops forever;
    that is the Stalled verdict, a certificate of non-termination under the
    chosen policy.  When both sides qualify for shifting, the chosen side
    alternates starting Left.
    """
    require_valid(g, require_counts=True)
    if g.n < 1:
        raise ValueError("reduction needs at least one color")
    return reduce_trusted(g, policy, max_iters)


def reduce_trusted(
    g: ColoredMultigraph, policy: PivotDonorPolicy, max_iters: int | None
) -> ReductionOutcome:
    """``reduce_to_normal_form`` without its guard: ``g`` has n >= 1 colors
    of n + 1 edges each and is proper, as on every graph the package built."""
    return reduce_lists(*map(list, zip(*g.edges)), g.n, policy, max_iters)


def reduce_lists(
    us: list[int], vs: list[int], cs: list[int], n: int,
    policy: PivotDonorPolicy, max_iters: int | None,
) -> ReductionOutcome:
    """The loop, in place on a graph of ``n`` colors whose edge i is
    (us[i], vs[i], cs[i]).  It first renumbers the vertices that carry an
    edge densely; their counts give the default cap.  The outcome holds the
    three lists and the new -> old maps of the vertices left.  Colors never
    change, and the graph stays compact: a shift keeps every far endpoint
    and gives the pivot edges, so only a donor that made no swap is isolated."""
    lmap, rmap = _compact(us), _compact(vs)
    target = n + 1
    # Each side's color masks, carried across steps: a shift changes only
    # its pivot's and its donor's, and never the far side's.
    lmasks, rmasks = _masks(us, cs, len(lmap)), _masks(vs, cs, len(rmap))
    if max_iters is None:
        max_iters = default_max_iters(n, len(lmasks), len(rmasks))
    trace: list[ReductionStep] = []
    alternate = Side.LEFT
    # Exact states: the edge set (its triples are distinct by properness)
    # and the alternation.  The step is a function of the state and sizes
    # never grow, so a state can recur only if its step keeps both sizes,
    # that is, swaps some edge: only such states are keyed, and the set is
    # emptied at each deletion, after which none of its keys can recur.
    seen: set[tuple[frozenset[tuple[int, int, int]], Side]] = set()

    while True:
        lsize, rsize = len(lmasks), len(rmasks)
        side = _side(lsize, rsize, target, alternate)
        if side is None:
            status = ReductionStatus.NORMALIZED
            break
        left = side is Side.LEFT
        near, far, masks = (us, vs, lmasks) if left else (vs, us, rmasks)
        pivot = _pivot(masks, n)
        donor = _donor(masks, pivot, policy)
        kept = masks[donor] & masks[pivot]
        if kept:
            state = (frozenset(zip(us, vs, cs)), alternate)
            if state in seen:
                status = ReductionStatus.STALLED
                break
            seen.add(state)
        if len(trace) >= max_iters:
            status = ReductionStatus.ITERATION_CAP
            break

        if lsize > target and rsize > target:
            alternate = alternate.other()
        moves, swaps = shift_arrays(near, far, cs, pivot, donor)
        # The pivot gains the moved colors and the donor keeps only the
        # swapped ones; a far endpoint keeps each color it had.
        masks[pivot] |= masks[donor]
        masks[donor] = kept
        if not swaps:
            near[:] = [x - 1 if x > donor else x for x in near]
            del masks[donor]
            seen.clear()
            if left:
                lmap = lmap[:donor] + lmap[donor + 1 :]
            else:
                rmap = rmap[:donor] + rmap[donor + 1 :]
        trace.append(ReductionStep(side, pivot, donor, moves, swaps))
    return ReductionOutcome(status, n, (us, vs, cs), tuple(trace), lmap, rmap)
