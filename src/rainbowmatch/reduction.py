"""Drive repeated shifting toward normal form.

Normal form: n + 1 edges of each color and exactly n + 1 non-isolated
vertices on each side.  Each iteration compacts isolated vertices, picks the
side that is still too large, and shifts one donor's edges onto a deficient
pivot of that side.

Whether this process always terminates in normal form is an open question the
harness measures (hypothesis H2); the driver therefore detects stalls and
caps iterations rather than assuming termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import (
    ColoredMultigraph,
    Edge,
    Side,
    canonical_edges,
    delete_vertex,
    require_valid,
)
from .shifting import shift_trusted


class ReductionStatus(str, Enum):
    NORMALIZED = "normalized"
    STALLED = "stalled"
    ITERATION_CAP = "iteration_cap"


class PivotDonorPolicy(str, Enum):
    # MaxDrain: donor maximizing the number of colors absent at the pivot
    # (ties break to the highest index).  LastVertex: always the last vertex.
    MAX_DRAIN = "maxdrain"
    LAST_VERTEX = "lastvertex"


@dataclass(frozen=True)
class ReductionStep:
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


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of a reduction run.

    ``left_map`` / ``right_map`` translate vertex indices of ``graph`` back to
    indices of the input graph (compactions only ever delete vertices, so the
    translation is a plain lookup).
    """

    status: ReductionStatus
    graph: ColoredMultigraph
    trace: tuple[ReductionStep, ...]
    iterations: int
    left_map: tuple[int, ...]
    right_map: tuple[int, ...]


def compact_isolated(
    g: ColoredMultigraph,
) -> tuple[ColoredMultigraph, tuple[int, ...], tuple[int, ...]]:
    """Drop isolated vertices on both sides, reindexing densely.

    Returns the compacted graph plus new-index -> old-index maps per side.
    """
    left_deg = [0] * g.left_size
    right_deg = [0] * g.right_size
    for e in g.edges:
        left_deg[e.u] += 1
        right_deg[e.v] += 1
    left_keep = tuple(i for i in range(g.left_size) if left_deg[i] > 0)
    right_keep = tuple(i for i in range(g.right_size) if right_deg[i] > 0)
    if len(left_keep) == g.left_size and len(right_keep) == g.right_size:
        return g, left_keep, right_keep
    left_new = {old: new for new, old in enumerate(left_keep)}
    right_new = {old: new for new, old in enumerate(right_keep)}
    edges = tuple(Edge(left_new[e.u], right_new[e.v], e.c) for e in g.edges)
    out = ColoredMultigraph(g.n, len(left_keep), len(right_keep), edges)
    return out, left_keep, right_keep


def default_max_iters(g: ColoredMultigraph) -> int:
    return 10 * g.n * (g.left_size + g.right_size)


def _color_masks(g: ColoredMultigraph, side: Side) -> list[int]:
    """Bit c of ``masks[v]`` is set iff color c is at vertex v of ``side``."""
    end = 0 if side is Side.LEFT else 1
    masks = [0] * g.side_size(side)
    for e in g.edges:
        masks[e[end]] |= 1 << e[2]
    return masks


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
    candidates = [v for v in range(size) if v != pivot]
    return max(candidates, key=lambda v: ((masks[v] & absent).bit_count(), v))


def pick_pivot(g: ColoredMultigraph, side: Side = Side.LEFT) -> int:
    """The lowest vertex of ``side`` missing some color."""
    return _pivot(_color_masks(g, side), g.n)


def pick_donor(
    g: ColoredMultigraph, pivot: int, policy: PivotDonorPolicy, side: Side = Side.LEFT
) -> int:
    return _donor(_color_masks(g, side), pivot, policy)


def choose_shift(
    cur: ColoredMultigraph, alternate: Side, policy: PivotDonorPolicy
) -> tuple[Side, int, int] | None:
    """The (side, pivot, donor) of the shift the reduction applies to the
    compacted graph ``cur``, or None when it is normal.

    The side is whichever one exceeds n + 1 vertices, or ``alternate`` when
    both do.
    """
    target = cur.n + 1
    left_over = cur.left_size > target
    right_over = cur.right_size > target
    if left_over and right_over:
        side = alternate
    elif left_over:
        side = Side.LEFT
    elif right_over:
        side = Side.RIGHT
    else:
        return None
    masks = _color_masks(cur, side)
    pivot = _pivot(masks, cur.n)
    return side, pivot, _donor(masks, pivot, policy)


def reduce_to_normal_form(
    g: ColoredMultigraph,
    policy: PivotDonorPolicy = PivotDonorPolicy.MAX_DRAIN,
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
    if max_iters is None:
        max_iters = default_max_iters(g)

    cur, lmap, rmap = compact_isolated(g)
    target = g.n + 1
    trace: list[ReductionStep] = []
    iterations = 0
    alternate = Side.LEFT
    # Exact states: sizes, the edge multiset in canonical order, and the
    # alternation; n never changes within one run.
    seen: set[tuple[int, int, tuple[Edge, ...], Side]] = set()

    def done(status: ReductionStatus) -> ReductionOutcome:
        return ReductionOutcome(status, cur, tuple(trace), iterations, lmap, rmap)

    while True:
        if cur.left_size == target and cur.right_size == target:
            return done(ReductionStatus.NORMALIZED)
        state = (cur.left_size, cur.right_size, canonical_edges(cur.edges), alternate)
        if state in seen:
            return done(ReductionStatus.STALLED)
        seen.add(state)
        if iterations >= max_iters:
            return done(ReductionStatus.ITERATION_CAP)

        side, pivot, donor = choose_shift(cur, alternate, policy)
        if cur.left_size > target and cur.right_size > target:
            alternate = alternate.other()
        outcome = shift_trusted(cur, pivot, donor, side)
        cur = outcome.graph
        # cur was compact, and a shift keeps every far endpoint and gives
        # the pivot edges, so only the donor can be left isolated: it keeps
        # one edge per swap.
        if not outcome.swaps:
            cur = delete_vertex(cur, side, donor)
            if side is Side.LEFT:
                lmap = lmap[:donor] + lmap[donor + 1 :]
            else:
                rmap = rmap[:donor] + rmap[donor + 1 :]
        trace.append(ReductionStep(side, pivot, donor, outcome.moves, outcome.swaps))
        iterations += 1
