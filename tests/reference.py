"""Reference definitions the package itself does not need.

Each is a plain, independent reading of a notion the package computes in a
faster form (bitmasks, one side-aware pass, a pruned search); tests compare
the package against these.
"""

from __future__ import annotations

import random
from typing import Callable

from rainbowmatch.construct import (
    ConstructFailure,
    ConstructionOutcome,
    ConstructStatus,
    ConstructStep,
    FailReason,
    PeelStrategy,
)
from rainbowmatch.generators import GenSpec
from rainbowmatch.graph import (
    RULE_BOUNDS,
    RULE_COUNTS,
    RULE_PROPERNESS,
    RULE_SHAPE,
    ColoredMultigraph,
    Edge,
    Matching,
    Side,
    ValidationReport,
    Violation,
    canonical_digest,
    canonical_edges,
    is_rainbow_matching,
    require_valid,
)
from rainbowmatch.oracle import OracleResult, rainbow_pairs
from rainbowmatch.reduction import (
    PivotDonorPolicy,
    ReductionStatus,
    _color_masks,
    _pivot,
    compact_isolated,
    reduce_to_normal_form,
)
from rainbowmatch.shifting import RewriteKind, ShiftOutcome, ShiftRewrite

NAIVE_EDGE_LIMIT = 24


def _check_vertex(g: ColoredMultigraph, side: Side, vertex: int) -> None:
    if not 0 <= vertex < g.side_size(side):
        raise ValueError(f"vertex {vertex} out of range for side {side.value} (size {g.side_size(side)})")


def delete_vertex(g: ColoredMultigraph, side: Side, vertex: int) -> ColoredMultigraph:
    """Remove ``vertex`` with its incident edges; reindex that side densely."""
    _check_vertex(g, side, vertex)
    if side is Side.LEFT:
        edges = tuple(
            Edge(e.u if e.u < vertex else e.u - 1, e.v, e.c) for e in g.edges if e.u != vertex
        )
        return ColoredMultigraph(g.n, g.left_size - 1, g.right_size, edges)
    edges = tuple(
        Edge(e.u, e.v if e.v < vertex else e.v - 1, e.c) for e in g.edges if e.v != vertex
    )
    return ColoredMultigraph(g.n, g.left_size, g.right_size - 1, edges)


def delete_color(g: ColoredMultigraph, c: int) -> ColoredMultigraph:
    """Remove color class ``c`` and reindex the remaining colors densely."""
    if not 0 <= c < g.n:
        raise ValueError(f"color {c} out of range (n={g.n})")
    edges = tuple(
        Edge(e.u, e.v, e.c if e.c < c else e.c - 1) for e in g.edges if e.c != c
    )
    return ColoredMultigraph(g.n - 1, g.left_size, g.right_size, edges)


def peel_ref(h: ColoredMultigraph, edge: Edge) -> ColoredMultigraph:
    """Peel ``edge``, a (pivot, v, color) edge of the normalized graph ``h``,
    as a graph: ``h`` without that color class and without the pivot,
    reindexed densely, edge order kept and the right side left as it is."""
    pivot, _, color = edge
    edges = tuple(
        Edge(u if u < pivot else u - 1, v, c if c < color else c - 1)
        for u, v, c in h.edges
        if u != pivot and c != color
    )
    return ColoredMultigraph(h.n - 1, h.left_size - 1, h.right_size, edges)


def counts_valid(g: ColoredMultigraph) -> bool:
    """In the hypotheses' domain: proper, ``n >= 1`` and ``n + 1`` edges per
    color, the instances an ``InstanceRun`` admits."""
    return g.n >= 1 and reference_validate(g, require_counts=True).ok


def reference_from_dict(d: dict) -> ColoredMultigraph:
    """The instance parser checking and building one edge at a time;
    ``from_dict`` must return the same graph or raise the same message."""
    if not isinstance(d, dict):
        raise ValueError(f"instance must be a JSON object, got {type(d).__name__}")
    try:
        n = d["n"]
        left = d["left"]
        right = d["right"]
        raw_edges = d["edges"]
    except KeyError as exc:
        raise ValueError(f"instance missing key {exc}") from exc
    if not all(type(x) is int for x in (n, left, right)):
        raise ValueError("instance fields n/left/right must be integers")
    if not isinstance(raw_edges, list):
        raise ValueError("instance field edges must be a list")
    edges = []
    for t in raw_edges:
        if not (isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)):
            raise ValueError(f"bad edge entry {t!r}: expected [u, v, c]")
        edges.append(Edge(t[0], t[1], t[2]))
    return ColoredMultigraph(n, left, right, tuple(edges))


def reference_validate(g: ColoredMultigraph, require_counts: bool = False) -> ValidationReport:
    """Every violated invariant of ``g``, found by scanning the edges one at
    a time, clean or not; ``validate`` must report the same."""
    violations: list[Violation] = []
    if g.n < 0 or g.left_size < 0 or g.right_size < 0:
        violations.append(
            Violation(RULE_SHAPE, f"negative dimension: n={g.n} left={g.left_size} right={g.right_size}", ())
        )
    for i, e in enumerate(g.edges):
        if not (0 <= e.u < g.left_size and 0 <= e.v < g.right_size and 0 <= e.c < g.n):
            violations.append(Violation(RULE_BOUNDS, f"edge {tuple(e)} out of bounds", (i,)))
    by_color: dict[int, list[tuple[int, Edge]]] = {}
    for i, e in enumerate(g.edges):
        by_color.setdefault(e.c, []).append((i, e))
    for c, items in sorted(by_color.items()):
        seen_u: dict[int, int] = {}
        seen_v: dict[int, int] = {}
        for i, e in items:
            if e.u in seen_u:
                violations.append(
                    Violation(RULE_PROPERNESS, f"color {c}: edges share left vertex {e.u}", (seen_u[e.u], i))
                )
            else:
                seen_u[e.u] = i
            if e.v in seen_v:
                violations.append(
                    Violation(RULE_PROPERNESS, f"color {c}: edges share right vertex {e.v}", (seen_v[e.v], i))
                )
            else:
                seen_v[e.v] = i
    if require_counts:
        out: list[tuple[int, Violation]] = []
        present = sorted(c for c in by_color if 0 <= c < g.n)
        for c in present:
            items = by_color[c]
            if len(items) != g.n + 1:
                detail = f"color {c} has {len(items)} edges, expected {g.n + 1}"
                out.append((c, Violation(RULE_COUNTS, detail, tuple(i for i, _ in items))))
        empty = g.n - len(present)
        if empty > 0:
            lowest = next((i for i, c in enumerate(present) if c != i), len(present))
            detail = (
                f"color {lowest} has 0 edges, expected {g.n + 1}"
                if empty == 1
                else f"{empty} colors have 0 edges, expected {g.n + 1} (lowest: color {lowest})"
            )
            out.append((lowest, Violation(RULE_COUNTS, detail, ())))
            out.sort(key=lambda item: item[0])
        violations.extend(v for _, v in out)
    return ValidationReport(ok=not violations, violations=tuple(violations))


def reference_gen_latin(spec: GenSpec) -> ColoredMultigraph:
    """``gen_latin`` by scanning every cell of the shuffled cyclic square,
    skipping the dropped symbol, then sorting the edges into (c, u, v) order."""
    order = spec.n + 1
    drop_symbol = spec.n if spec.drop is None else spec.drop
    rng = random.Random(spec.seed)
    row_perm = rng.sample(range(order), order)
    col_perm = rng.sample(range(order), order)
    sym_perm = rng.sample(range(order), order)
    edges: list[Edge] = []
    for r in range(order):
        for c in range(order):
            symbol = sym_perm[(row_perm[r] + col_perm[c]) % order]
            if symbol == drop_symbol:
                continue
            color = symbol if symbol < drop_symbol else symbol - 1
            edges.append(Edge(r, c, color))
    return ColoredMultigraph(spec.n, order, order, canonical_edges(edges))


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


def reference_shift(
    g: ColoredMultigraph, pivot: int, donor: int, side: Side = Side.LEFT
) -> ShiftOutcome:
    """Shifting written on Edge values for the left side only: each donor
    edge, in ascending color order, is rewritten against the current edge
    list.  A right-side shift is the left-side shift of the mirrored graph,
    mirrored back along with its rewrites."""
    if side is Side.RIGHT:
        out = reference_shift(mirror(g), pivot, donor)
        return ShiftOutcome(
            mirror(out.graph),
            tuple(
                ShiftRewrite(r.kind, r.color, mirrored_edges(r.removed), mirrored_edges(r.added))
                for r in out.rewrites
            ),
            out.moves,
            out.swaps,
        )
    work = list(g.edges)
    rewrites = []
    for c, i in sorted((e.c, i) for i, e in enumerate(work) if e.u == donor):
        e = work[i]
        j = next((j for j, p in enumerate(work) if p.u == pivot and p.c == c), None)
        if j is None:
            work[i] = Edge(pivot, e.v, c)
            rewrites.append(ShiftRewrite(RewriteKind.MOVE, c, (e,), (work[i],)))
        else:
            p = work[j]
            work[j] = Edge(pivot, e.v, c)
            work[i] = Edge(donor, p.v, c)
            rewrites.append(ShiftRewrite(RewriteKind.SWAP, c, (p, e), (work[j], work[i])))
    moves = sum(r.kind is RewriteKind.MOVE for r in rewrites)
    return ShiftOutcome(
        ColoredMultigraph(g.n, g.left_size, g.right_size, tuple(work)),
        tuple(rewrites),
        moves,
        len(rewrites) - moves,
    )


def reference_h1_all(
    g: ColoredMultigraph, maximum: Callable[[ColoredMultigraph], int]
) -> dict | None:
    """H1's ``all`` mode as a loop over every declared left vertex: each
    ordered pair of distinct left vertices whose donor has an edge, isolated
    pivots included, in ascending (pivot, donor) order.  Returns the first
    pair whose shift moves ``maximum`` across ``g.n`` as H1's witness
    fields, or None."""
    carriers = {e.u for e in g.edges}
    before = maximum(g)
    for pivot in range(g.left_size):
        for donor in range(g.left_size):
            if donor == pivot or donor not in carriers:
                continue
            after = maximum(reference_shift(g, pivot, donor).graph)
            if (before >= g.n) != (after >= g.n):
                return {
                    "side": Side.LEFT.value,
                    "pivot": pivot,
                    "donor": donor,
                    "direction": "forward" if before >= g.n else "reverse",
                    "max_before": before,
                    "max_after": after,
                }
    return None


def mirrored_edges(edges: tuple[Edge, ...]) -> tuple[Edge, ...]:
    """Each edge with its endpoints exchanged, as ``mirror`` does."""
    return tuple(Edge(e.v, e.u, e.c) for e in edges)


def shift_applicable(g: ColoredMultigraph, pivot: int) -> bool:
    """True iff the pivot's color spectrum is not yet full.

    Properness caps a vertex at n distinct colors, so "not full" is
    equivalently "fewer than n".
    """
    return len(colors_at(g, Side.LEFT, pivot)) < g.n


def pick_pivot(g: ColoredMultigraph, side: Side = Side.LEFT) -> int:
    """The reduction's pivot rule applied to a graph rather than to the
    reduction's working lists: the lowest vertex of ``side`` missing some
    color."""
    return _pivot(_color_masks(g, side), g.n)


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


def reference_construct(
    g: ColoredMultigraph,
    strategy: PeelStrategy,
    policy: PivotDonorPolicy,
) -> ConstructionOutcome:
    """The construction search lifting every candidate bottom-up through
    every level and checking each one in full at the top, peeling in two
    steps (delete the color, then the pivot) and reducing every level by
    ``policy``.  No candidate is rejected early; ``construct`` must report
    the same outcome."""
    attempts = 0
    failure: ConstructFailure | None = None
    failure_trace: tuple = ()

    def record(depth, reason, level_graph, trace):
        nonlocal failure, failure_trace
        if failure is None or depth > failure.depth:
            failure = ConstructFailure(depth, reason, canonical_digest(level_graph))
            failure_trace = tuple(trace)

    def candidates(cur, depth):
        nonlocal attempts
        if cur.n == 2:
            pairs2 = rainbow_pairs(cur)
            if not pairs2:
                record(depth, FailReason.RECURSIVE_FAILURE, cur, [])
            for a, b in pairs2:
                yield [a, b], []
            return
        red = reduce_to_normal_form(cur, policy)
        if red.status is not ReductionStatus.NORMALIZED:
            record(depth, FailReason.REDUCTION_STALLED, cur, [])
            return
        h = red.graph
        colors = range(1) if strategy is PeelStrategy.FIRST_FEASIBLE else range(h.n)
        pairs = [
            (c, u)
            for c in colors
            for u in sorted({e.u for e in h.edges if e.c == c})
        ]
        if strategy is PeelStrategy.FIRST_FEASIBLE:
            pairs = pairs[:1]
        # A normal form carries every color at every vertex.
        assert pairs
        for color, pivot in pairs:
            attempts += 1
            edge = next(e for e in h.edges if e.u == pivot and e.c == color)
            residual = delete_vertex(delete_color(h, color), Side.LEFT, pivot)
            red2 = reduce_to_normal_form(residual, policy)
            step = ConstructStep(depth, color, pivot, edge)
            if red2.status is not ReductionStatus.NORMALIZED:
                record(depth, FailReason.REDUCTION_STALLED, cur, [step])
                continue
            if edge.v in red2.right_map:
                record(depth, FailReason.COUNT_DEFICIT, cur, [step])
            for sub, sub_trace in candidates(red2.graph, depth + 1):
                lifted = [Edge(red.left_map[edge.u], red.right_map[edge.v], edge.c)]
                for e in sub:
                    u = red2.left_map[e.u]
                    u = u if u < pivot else u + 1
                    c = e.c if e.c < color else e.c + 1
                    lifted.append(
                        Edge(red.left_map[u], red.right_map[red2.right_map[e.v]], c)
                    )
                yield lifted, [step] + sub_trace

    candidate = None
    trace: tuple = ()
    for edges, steps in candidates(g, 0):
        m = Matching(tuple(edges))
        if is_rainbow_matching(g, m, g.n):
            return ConstructionOutcome(
                ConstructStatus.MATCHED, m, None, tuple(steps), None, attempts
            )
        if candidate is None:
            candidate, trace = m, tuple(steps)
        record(0, FailReason.RECURSIVE_FAILURE, g, steps)
        if strategy is PeelStrategy.FIRST_FEASIBLE:
            break
    if candidate is None:
        trace = failure_trace
    return ConstructionOutcome(
        ConstructStatus.STEP_FAILED, None, failure, trace, candidate, attempts
    )
