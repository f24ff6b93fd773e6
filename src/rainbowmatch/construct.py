"""Inductive rainbow-matching construction.

One induction level: normalize the graph, pick a color K and a pivot vertex
carrying a K-edge (pivot, v), delete the color class and the pivot, then
re-normalize the residual.  The re-normalization is expected to empty exactly
the right vertex v; if some other vertex empties instead, excising v would
break the per-color counts, which is the CountDeficit failure (hypothesis
H3).  The search records that diagnosis but still recurses, because a
sub-matching that avoids v lifts cleanly regardless.  Recursion bottoms out
at n == 2, where the oracle enumerates every witness; the induction only
needs some matching, so candidates are tried in turn.  The input and every
residual are reduced by one policy, the reduction cache's.

Edges found at deeper levels live in graphs rewritten by shifting, so the
assembled matching is only *claimed* to exist in the original input.  The
claim is re-verified at the top; a violation is demoted to a structured
failure and the unverified candidate kept for analysis (hypothesis H5).  A
Matched outcome therefore never lies.

Each level's peeled edge is translated into input coordinates as the search
descends, so a candidate is assembled once, at the base, already in input
coordinates.  Only the first candidate is kept whole whatever it holds: it
is the H5 witness.  After it, a candidate reaches the final check only if
every edge is an input edge and no two share a right vertex; lefts and
colors never clash, because each level removes its pivot and its color.

Two kinds of work are counted, not run, because nothing can observe them.
Below the top, a level's graph is its parent's normalized residual, which
the reduction leaves as it is, so only the input is reduced on entry.  At a
level whose residuals are bases, once pruning is on and a failure at least
as deep is kept, a peel whose edge dooms the child only adds to
``attempts``: the child would yield nothing, the failures it could record at
this depth are not deeper than the kept one, and its base always holds a
rainbow pair, so it records nothing.  Attempts and failures stay those of the
unpruned search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .graph import (
    ColoredMultigraph,
    Edge,
    Matching,
    canonical_digest,
    edge_lists,
    is_rainbow_matching,
    new_edge,
    require_valid,
)
from .oracle import rainbow_pairs_trusted
from .reduction import (
    DEFAULT_POLICY,
    PivotDonorPolicy,
    ReductionOutcome,
    ReductionStatus,
    reduce_trusted,
)

DEFAULT_BUDGET = 10_000


class Reductions(dict[ColoredMultigraph, ReductionOutcome]):
    """Reductions keyed on the exact input graph, edge order included, all
    under the cache's one policy and iteration cap: looking up a missing
    graph runs ``reduce_trusted``, so each exact input is reduced once."""

    def __init__(self, policy: PivotDonorPolicy = DEFAULT_POLICY, max_iters: int | None = None):
        super().__init__()
        self.policy = policy
        self.max_iters = max_iters

    def __missing__(self, g: ColoredMultigraph) -> ReductionOutcome:
        red = self[g] = reduce_trusted(g, self.policy, self.max_iters)
        return red


class PeelStrategy(str, Enum):
    FIRST_FEASIBLE = "first"
    BACKTRACKING = "backtrack"


class ConstructStatus(str, Enum):
    MATCHED = "matched"
    STEP_FAILED = "step_failed"


class FailReason(str, Enum):
    REDUCTION_STALLED = "reduction_stalled"
    COUNT_DEFICIT = "count_deficit"
    RECURSIVE_FAILURE = "recursive_failure"


@dataclass(frozen=True)
class ConstructFailure:
    depth: int
    reason: FailReason
    digest: str  # digest of the level's entry graph

    def to_dict(self) -> dict:
        return {"depth": self.depth, "reason": self.reason.value, "digest": self.digest}


@dataclass(frozen=True)
class ConstructStep:
    """One peel: ``edge`` is the pivot's unique ``color`` edge inside
    ``graph``, the normalized graph of that level."""

    depth: int
    color: int
    pivot: int
    edge: Edge
    graph: ColoredMultigraph

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "color": self.color,
            "pivot": self.pivot,
            "edge": list(self.edge),
        }


@dataclass(frozen=True)
class ConstructionOutcome:
    status: ConstructStatus
    matching: Matching | None
    failure: ConstructFailure | None
    trace: tuple[ConstructStep, ...]
    # Assembled full-size matching that failed the final check against the
    # original graph, when one exists; the H5 witness.
    candidate: Matching | None
    attempts: int

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "matching": edge_lists(self.matching.edges) if self.matching is not None else None,
            "attempts": self.attempts,
            "failure": self.failure.to_dict() if self.failure is not None else None,
            "candidate": edge_lists(self.candidate.edges) if self.candidate is not None else None,
            "steps": [s.to_dict() for s in self.trace],
        }


class _SearchState:
    def __init__(
        self,
        g: ColoredMultigraph,
        strategy: PeelStrategy,
        budget: int,
        reductions: Reductions,
    ):
        self.strategy = strategy
        self.budget = budget
        self.present = set(g.edges)
        # Set once the first candidate, the H5 witness, has been assembled;
        # from then on candidates that cannot pass are not assembled.
        self.prune = False
        self.attempts = 0
        self.deepest_failure: ConstructFailure | None = None
        self.deepest_trace: tuple[ConstructStep, ...] = ()
        self.reductions = reductions

    def record(
        self, depth: int, reason: FailReason, g: ColoredMultigraph, trace: list[ConstructStep]
    ) -> None:
        """Keep the failure if it is the deepest so far; ``g`` is the failing
        level's entry graph, hashed only when the failure is kept."""
        if self.deepest_failure is None or depth > self.deepest_failure.depth:
            self.deepest_failure = ConstructFailure(depth, reason, canonical_digest(g))
            self.deepest_trace = tuple(trace)


def peels(h: ColoredMultigraph) -> list[tuple[int, int, Edge]]:
    """The (color, pivot, edge) peels of the normalized graph ``h`` in search
    order, ``edge`` being the pivot's unique ``color`` edge.  Every vertex of
    ``h`` carries every color, so the first is color 0 at its lowest pivot."""
    at_pivot: dict[int, dict[int, Edge]] = {}
    for e in h.edges:
        at_pivot.setdefault(e[2], {})[e[0]] = e
    return [(c, u, edges[u]) for c, edges in sorted(at_pivot.items()) for u in sorted(edges)]


def peel(h: ColoredMultigraph, edge: Edge) -> ColoredMultigraph:
    """Peel ``edge``, a (pivot, v, color) edge of the normalized graph ``h``:
    ``h`` without that color class and without the pivot, reindexed densely.
    The residual is counts-valid, since every vertex of ``h`` carries every
    color."""
    pivot, _, color = edge
    edges = tuple([
        new_edge((u if u < pivot else u - 1, v, c if c < color else c - 1))
        for u, v, c in h.edges
        if u != pivot and c != color
    ])
    return ColoredMultigraph(h.n - 1, h.left_size - 1, h.right_size, edges)


# Tables from a level's left, right and color indices to the input's.
_ToInput = tuple[Sequence[int], Sequence[int], Sequence[int]]


def _candidates(
    g: ColoredMultigraph,
    depth: int,
    state: _SearchState,
    to_input: _ToInput,
    prefix: tuple[Edge, ...],
    steps: tuple[ConstructStep, ...],
    doomed: bool,
) -> Iterator[tuple[tuple[Edge, ...], tuple[ConstructStep, ...]]]:
    """Yield full-size matchings for this subtree in deterministic search
    order, in input coordinates: ``prefix`` (the edges peeled above) plus a
    matching of ``g``.  ``doomed`` says some prefix edge is not an input edge
    or repeats a right vertex.  ``g`` is the input at depth 0 and a
    normalized residual below it.  Every peel tried counts as an attempt, but
    one whose subtree nothing can observe is not run.  Failures are recorded
    on the shared state; the deepest one becomes the reported failure."""
    us, vs, cs = to_input
    rights = {e.v for e in prefix}
    if g.n == 2:
        pairs2 = rainbow_pairs_trusted(g)
        if not pairs2:
            # No size-2 matching at the base would refute the conjecture
            # itself; surfaced under the recursive-failure reason.
            state.record(depth, FailReason.RECURSIVE_FAILURE, g, [])
            return
        present = state.present
        for a, b in pairs2:
            if doomed and state.prune:
                return
            ea = new_edge((us[a[0]], vs[a[1]], cs[a[2]]))
            eb = new_edge((us[b[0]], vs[b[1]], cs[b[2]]))
            if state.prune and (
                ea not in present
                or eb not in present
                or ea.v in rights
                or eb.v in rights
            ):
                continue
            state.prune = True
            yield prefix + (ea, eb), steps
        return

    if depth:
        # g is its parent's normalized residual, which the reduction returns
        # unchanged.
        h, h_us, h_vs = g, us, vs
    else:
        red = state.reductions[g]
        if red.status is not ReductionStatus.NORMALIZED:
            state.record(depth, FailReason.REDUCTION_STALLED, g, [])
            return
        h = red.graph
        # h's vertices in input coordinates: undo red's compaction.
        h_us = [us[u] for u in red.left_map]
        h_vs = [vs[v] for v in red.right_map]
    pairs = peels(h)
    if state.strategy is PeelStrategy.FIRST_FEASIBLE:
        pairs = pairs[:1]
    for color, pivot, edge in pairs:
        if state.attempts >= state.budget:
            return
        state.attempts += 1
        # edge is (pivot, v, color) in h's coordinates.
        right = h_vs[edge.v]
        head = new_edge((h_us[pivot], right, cs[color]))
        sub_doomed = doomed or head not in state.present or right in rights
        if sub_doomed and h.n == 3 and state.prune and state.deepest_failure.depth >= depth:
            # Past the H5 witness, which keeps a failure at depth 0, a
            # doomed base child only counts.  It would yield nothing, its
            # failures at this depth are no deeper than the kept one, and
            # its base never records, as two proper colors of three edges
            # always hold a rainbow pair (pinned by
            # test_two_colors_of_three_edges_have_a_rainbow_pair).
            continue
        red2 = state.reductions[peel(h, edge)]
        step = ConstructStep(depth, color, pivot, edge, h)
        if red2.status is not ReductionStatus.NORMALIZED:
            state.record(depth, FailReason.REDUCTION_STALLED, g, [step])
            continue
        if edge.v in red2.right_map:
            # The wrong right vertex was emptied, so excising v would
            # leave some color class short of n edges.  Recurse anyway:
            # a sub-matching that happens to avoid v still lifts cleanly,
            # and the final verification arbitrates.
            state.record(depth, FailReason.COUNT_DEFICIT, g, [step])
        # The sub-level's coordinates: undo red2's compaction, then
        # re-insert the pivot and the peeled color.
        sub_to_input = (
            [h_us[u if u < pivot else u + 1] for u in red2.left_map],
            [h_vs[v] for v in red2.right_map],
            [cs[c if c < color else c + 1] for c in range(h.n - 1)],
        )
        yield from _candidates(
            red2.graph,
            depth + 1,
            state,
            sub_to_input,
            prefix + (head,),
            steps + (step,),
            sub_doomed,
        )


def construct(
    g: ColoredMultigraph,
    strategy: PeelStrategy = PeelStrategy.FIRST_FEASIBLE,
    *,
    budget: int = DEFAULT_BUDGET,
    policy: PivotDonorPolicy = DEFAULT_POLICY,
    max_iters: int | None = None,
) -> ConstructionOutcome:
    """Run the induction on ``g``; never returns an unverified matching.

    FirstFeasible tries the single pair (color 0, lowest pivot) at every
    level; Backtracking iterates all (color, pivot) pairs within the attempt
    budget.  The input and every residual are reduced by ``policy`` under
    the iteration cap ``max_iters``, as ``reduce_to_normal_form`` takes them.
    """
    require_valid(g, require_counts=True)
    if g.n < 2:
        raise ValueError("construction needs n >= 2")
    return construct_trusted(g, strategy, budget, Reductions(policy, max_iters))


def construct_trusted(
    g: ColoredMultigraph, strategy: PeelStrategy, budget: int, reductions: Reductions
) -> ConstructionOutcome:
    """``construct`` without its guard: ``g`` is proper with n >= 2 colors
    of n + 1 edges each, as on every instance an ``InstanceRun`` admits.
    Every reduction of the search goes through ``reductions``, under its
    policy and cap; it reuses what the caller reduced and keeps what the
    search reduces."""
    state = _SearchState(g, strategy, budget, reductions)
    identity = (range(g.left_size), range(g.right_size), range(g.n))
    candidate: Matching | None = None
    trace: tuple[ConstructStep, ...] = ()
    for edges, steps in _candidates(g, 0, state, identity, (), (), False):
        m = Matching(edges)
        if is_rainbow_matching(g, m, g.n):
            return ConstructionOutcome(
                ConstructStatus.MATCHED, m, None, steps, None, state.attempts
            )
        if candidate is None:
            candidate = m
            trace = steps
        state.record(0, FailReason.RECURSIVE_FAILURE, g, steps)
        if strategy is PeelStrategy.FIRST_FEASIBLE:
            break

    if state.deepest_failure is None:
        # Budget ran out before any attempt could even fail.
        state.record(0, FailReason.RECURSIVE_FAILURE, g, [])
    failure = state.deepest_failure
    if candidate is None:
        trace = state.deepest_trace
    return ConstructionOutcome(
        ConstructStatus.STEP_FAILED, None, failure, trace, candidate, state.attempts
    )
