"""Inductive rainbow-matching construction.

One induction level: normalize the graph, pick a color K and a pivot vertex
carrying a K-edge (pivot, v), delete the color class and the pivot, then
re-normalize the residual.  The re-normalization is expected to empty exactly
the right vertex v; if some other vertex empties instead, excising v would
break the per-color counts, which is the CountDeficit failure (hypothesis
H3).  The search records that diagnosis but still recurses, because a
sub-matching that avoids v lifts cleanly regardless.  Recursion bottoms out
at n == 2, where the oracle enumerates every witness; the induction only
needs some matching, so candidates are tried in turn.

A level is a reduction outcome's three int lists, from the input's normal
form down to the n == 2 base: ``peel`` cuts a level's lists into its
residual's, which ``reduce_lists``, the loop the input entered, normalizes in
place.  No graph is built per level, only one per unmatched search, for the
digest of the failure it reports.  A reduction stopped by its cap is an
``iteration_cap`` failure, reported over any other: the search past it is
incomplete.

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

Past the witness a peel is run only while its child can still lift: its
head edge, in input coordinates, must be an input edge on a right vertex no
earlier peel used, and the input edges left to the child must hold a
rainbow matching of the child's n - 1 colors.  Those are the edges on the
level's lefts but the pivot, its colors but the peeled one, and its right
vertices but the peeled one and every earlier peel's; every edge the child
could add to a passing candidate is one of them.  The level's live input
edges are grouped by color once, in its own dense coordinates.  A peel
whose child would keep fewer than n - 1 non-empty classes fails at once;
otherwise the oracle's one exact search decides it, on the classes but the
peeled color, with the pivot and the peeled right vertex marked as already
used.  At the n == 2 base only live edges are paired past the witness.  A
peel that fails either test dooms every candidate below it, so it is neither
reduced, walked nor counted.
``attempts`` is the number of peels run.  The search has no budget: unless
a reduction's cap stops it, a search that ends unmatched has run out of
peels, so no peel sequence lifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

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
from .oracle import max_rainbow_classes, rainbow_pairs_trusted
from .reduction import (
    DEFAULT_POLICY,
    Level,
    PivotDonorPolicy,
    ReductionOutcome,
    ReductionStatus,
    reduce_lists,
    reduce_trusted,
)


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
    ITERATION_CAP = "iteration_cap"


# The failure of a reduction that stops short of normal form, by its status.
_UNREDUCED = {ReductionStatus.STALLED: FailReason.REDUCTION_STALLED,
              ReductionStatus.ITERATION_CAP: FailReason.ITERATION_CAP}


@dataclass(frozen=True)
class ConstructFailure:
    depth: int
    reason: FailReason
    digest: str  # digest of the level's entry graph

    def to_dict(self) -> dict:
        return {"depth": self.depth, "reason": self.reason.value, "digest": self.digest}


class ConstructStep(NamedTuple):
    """One peel: ``edge`` is the pivot's unique ``color`` edge in the
    normalized graph of that level."""

    depth: int
    color: int
    pivot: int
    edge: Edge

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
    def __init__(self, g: ColoredMultigraph, strategy: PeelStrategy,
                 policy: PivotDonorPolicy, max_iters: int | None):
        self.g = g
        self.strategy = strategy
        self.policy = policy
        self.max_iters = max_iters
        self.present = set(g.edges)
        # Set once the first candidate, the H5 witness, has been assembled;
        # from then on no peel or candidate that cannot pass is run.
        self.prune = False
        self.attempts = 0
        # The kept failure: (depth, reason, the level's reduction, trace).
        self.kept: tuple[int, FailReason, ReductionOutcome | None, Sequence[ConstructStep]] | None = None

    def record(
        self, depth: int, reason: FailReason, level: ReductionOutcome | None,
        trace: Sequence[ConstructStep],
    ) -> None:
        """Keep the failure if it ranks above the kept one: a capped
        reduction first, then the deepest."""
        kept = self.kept
        capped = reason is FailReason.ITERATION_CAP
        if kept is None or (capped, depth) > (kept[1] is FailReason.ITERATION_CAP, kept[0]):
            self.kept = depth, reason, level, trace

    def failure(self) -> tuple[ConstructFailure, tuple[ConstructStep, ...]]:
        """The kept failure and its trace.  Its level's graph (the input at
        depth 0, else the kept reduction's, whose lists nothing changes once
        the level is reduced) is built and hashed here, once per search."""
        depth, reason, level, trace = self.kept
        g = level.graph if depth else self.g
        return ConstructFailure(depth, reason, canonical_digest(g)), tuple(trace)


def peels(level: Level) -> list[tuple[int, int, int]]:
    """The (color, pivot, index) peels of a normal form in search order,
    edge ``index`` being the pivot's unique ``color`` edge.  Every vertex of
    a normal form carries every color, so the first is color 0 at its
    lowest pivot."""
    us, _, cs = level
    return sorted(zip(cs, us, range(len(us))))


def peel(level: Level, pivot: int, color: int) -> Level:
    """The normal form ``level`` without its ``color`` class and ``pivot``,
    reindexed densely, edge order kept.  It is counts-valid, since every
    vertex of a normal form carries every color, but a right vertex whose
    other edges were all the pivot's is left isolated."""
    us: list[int] = []
    vs: list[int] = []
    cs: list[int] = []
    for u, v, c in zip(*level):
        if u != pivot and c != color:
            us.append(u if u < pivot else u - 1)
            vs.append(v)
            cs.append(c if c < color else c - 1)
    return us, vs, cs


def _live_classes(
    edges: Sequence[Edge], to_input: Level, rights: set[int],
) -> list[list[tuple[int, int, int]]]:
    """The input ``edges`` a level's matching could still use, in the level's
    coordinates and grouped by its colors: those on its lefts, its colors
    and its right vertices that no prefix edge holds."""
    l_in, r_in, c_in = to_input
    lix = {x: k for k, x in enumerate(l_in)}
    rix = {x: k for k, x in enumerate(r_in) if x not in rights}
    cix = {x: k for k, x in enumerate(c_in)}
    classes: list[list[tuple[int, int, int]]] = [[] for _ in c_in]
    for u, v, c in edges:
        if u in lix and v in rix and c in cix:
            k = cix[c]
            classes[k].append((lix[u], rix[v], k))
    return classes


def _candidates(
    reduced: ReductionOutcome, state: _SearchState, to_input: Level,
    prefix: tuple[Edge, ...], steps: tuple[ConstructStep, ...], doomed: bool,
    first: ReductionOutcome | None = None,
) -> Iterator[tuple[tuple[Edge, ...], tuple[ConstructStep, ...]]]:
    """Yield full-size matchings for this subtree in deterministic search
    order, in input coordinates: ``prefix`` (the edges peeled above) plus a
    matching of the level ``reduced`` holds, which has ``reduced.n``
    colors.  ``doomed`` says some prefix edge is not an input edge or
    repeats a right vertex.  The level's depth is ``len(steps)``, the peels
    above it: it is the input's normal form at depth 0, or the input itself
    when n == 2, and a normalized residual below it.
    ``first``, when given, is the reduction of the first peel, which always
    runs.  Failures are recorded on the shared state, which keeps the
    highest-ranked one."""
    level, n = reduced.level, reduced.n
    l_in, r_in, c_in = to_input
    rights = {e.v for e in prefix}
    if n == 2:
        # The maps are injective, so the pairs of the edges in input
        # coordinates are the level's, in the same order.
        es = [new_edge((l_in[u], r_in[v], c_in[c])) for u, v, c in zip(*level)]
        if not state.prune:
            # The first candidate is the H5 witness, whatever it holds.  It
            # exists: the level is proper with 2 colors of 3 edges, and a
            # color-0 edge meets at most 2 of the 3 color-1 edges.
            state.prune = True
            yield prefix + next(rainbow_pairs_trusted(es)), steps
            if doomed:
                return
        # Past the witness (where no level below a doomed peel is entered)
        # only a pair of input edges on right vertices no peel has used can
        # pass, so only those are paired.
        live = [e for e in es if e in state.present and e.v not in rights]
        for pair in rainbow_pairs_trusted(live):
            yield prefix + pair, steps
        return

    depth = len(steps)
    vs = level[1]
    pairs = peels(level)
    if state.strategy is PeelStrategy.FIRST_FEASIBLE:
        pairs = pairs[:1]
    live = None
    for color, pivot, i in pairs:
        right = r_in[vs[i]]
        head = new_edge((l_in[pivot], right, c_in[color]))
        sub_doomed = doomed or head not in state.present or right in rights
        if state.prune:
            if sub_doomed:
                continue
            # The completion check: the input edges left to the child, off
            # the pivot, the peeled right vertex and color, must hold a
            # matching of its n - 1 colors.  Fewer classes cannot.
            if live is None:
                live = _live_classes(state.g.edges, to_input, rights)
            rest = [cl for c, cl in enumerate(live) if cl and c != color]
            if len(rest) < n - 1 or len(
                max_rainbow_classes(rest, n - 1, 1 << pivot, 1 << vs[i])[0]
            ) < n - 1:
                continue
        state.attempts += 1
        step = ConstructStep(depth, color, pivot, new_edge((pivot, vs[i], color)))
        if first is None:
            sub = reduce_lists(*peel(level, pivot, color), n - 1, state.policy, state.max_iters)
        else:
            sub, first = first, None
        status, _, _, _, lmap, rmap = sub
        if status is not ReductionStatus.NORMALIZED:
            state.record(depth, _UNREDUCED[status], reduced, [step])
            continue
        if vs[i] in rmap:
            # The wrong right vertex was emptied, so excising the peeled
            # one would leave some color class short of n edges.  Recurse
            # anyway: a sub-matching that happens to avoid it still lifts
            # cleanly, and the final verification arbitrates.
            state.record(depth, FailReason.COUNT_DEFICIT, reduced, [step])
        # The sub-level's coordinates: undo the residual's compaction, then
        # re-insert the pivot and the peeled color.
        sub_to_input = (
            [l_in[u if u < pivot else u + 1] for u in lmap],
            [r_in[v] for v in rmap],
            [c_in[c if c < color else c + 1] for c in range(n - 1)],
        )
        yield from _candidates(sub, state, sub_to_input, prefix + (head,),
                               steps + (step,), sub_doomed)


def construct(
    g: ColoredMultigraph,
    strategy: PeelStrategy = PeelStrategy.FIRST_FEASIBLE,
    *,
    policy: PivotDonorPolicy = DEFAULT_POLICY,
    max_iters: int | None = None,
) -> ConstructionOutcome:
    """Run the induction on ``g``; never returns an unverified matching.

    FirstFeasible tries the single pair (color 0, lowest pivot) at every
    level; Backtracking iterates all (color, pivot) pairs until a matching
    lifts or none is left.  The input and every residual are reduced by
    ``policy`` under the iteration cap ``max_iters``, as
    ``reduce_to_normal_form`` takes them.
    """
    require_valid(g, require_counts=True)
    if g.n < 2:
        raise ValueError("construction needs n >= 2")
    entry = reduce_trusted(g, policy, max_iters) if g.n > 2 else None
    return construct_trusted(g, strategy, entry, None, policy, max_iters)


def construct_trusted(
    g: ColoredMultigraph, strategy: PeelStrategy, entry: ReductionOutcome | None,
    first: ReductionOutcome | None, policy: PivotDonorPolicy, max_iters: int | None,
) -> ConstructionOutcome:
    """``construct`` without its guard: ``g`` is proper with n >= 2 colors
    of n + 1 edges each, as on every instance an ``InstanceRun`` admits,
    and ``entry`` is its reduction under ``policy`` and ``max_iters``, which
    reduce every residual too; it is None when n == 2, since the base
    matches ``g`` as it stands.  ``first`` is the reduction of the residual
    of the entry's first peel, ``peels(entry.level)[0]``, or None to have
    the search reduce it."""
    state = _SearchState(g, strategy, policy, max_iters)
    if g.n == 2:
        # The base pairs g's own edges, as if reduced in no steps.
        entry = ReductionOutcome(ReductionStatus.NORMALIZED, 2, tuple(zip(*g.edges)), (),
                                 range(g.left_size), range(g.right_size))
    search: Iterable[tuple[tuple[Edge, ...], tuple[ConstructStep, ...]]] = ()
    if entry.status is ReductionStatus.NORMALIZED:
        to_input = (entry.left_map, entry.right_map, range(g.n))
        search = _candidates(entry, state, to_input, (), (), False, first)
    else:
        state.record(0, _UNREDUCED[entry.status], None, [])
    candidate: Matching | None = None
    trace: tuple[ConstructStep, ...] = ()
    for edges, steps in search:
        m = Matching(edges)
        if is_rainbow_matching(g, m, g.n):
            return ConstructionOutcome(
                ConstructStatus.MATCHED, m, None, steps, None, state.attempts
            )
        if candidate is None:
            candidate = m
            trace = steps
        state.record(0, FailReason.RECURSIVE_FAILURE, None, steps)
        if strategy is PeelStrategy.FIRST_FEASIBLE:
            break

    failure, failure_trace = state.failure()
    if candidate is None:
        trace = failure_trace
    return ConstructionOutcome(
        ConstructStatus.STEP_FAILED, None, failure, trace, candidate, state.attempts
    )
