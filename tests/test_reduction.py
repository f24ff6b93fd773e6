from __future__ import annotations

import pytest
from hypothesis import given, settings

from hypothesis import assume
from hypothesis import strategies as st

from conftest import seeded
from rainbowmatch import reduction
from rainbowmatch.construct import peel, peels
from rainbowmatch.graph import (
    ColoredMultigraph,
    Edge,
    Side,
    canonical_digest,
    to_canonical_json,
    validate,
)
from rainbowmatch.reduction import (
    PivotDonorPolicy,
    ReductionStatus,
    ReductionStep,
    compact_isolated,
    default_max_iters,
    pick_donor,
    reduce_lists,
    reduce_to_normal_form,
    reduce_trusted,
)
from rainbowmatch.shifting import shift
from reference import (
    colors_at,
    delete_vertex,
    is_normal_form,
    mirror,
    pick_pivot,
    reference_shift,
)
from strategies import counts_valid_graphs, padded_graphs, proper_graphs


def replay_trace(g, outcome):
    """Re-apply the recorded steps; must land on the reported graph."""
    cur, _, _ = compact_isolated(g)
    for step in outcome.trace:
        work = cur if step.side is Side.LEFT else mirror(cur)
        shifted = shift(work, step.pivot, step.donor)
        assert shifted.moves == step.moves and shifted.swaps == step.swaps
        back = shifted.graph if step.side is Side.LEFT else mirror(shifted.graph)
        cur, _, _ = compact_isolated(back)
    return cur


def test_mirror_involution(i2):
    assert mirror(mirror(i2)).edges == i2.edges
    m = mirror(i2)
    assert m.left_size == i2.right_size
    assert Edge(0, 0, 0) in m.edges and Edge(1, 0, 1) in m.edges


def test_compact_isolated():
    g = ColoredMultigraph.of(1, 4, 3, [(1, 2, 0), (3, 0, 0)])
    h, lkeep, rkeep = compact_isolated(g)
    assert lkeep == (1, 3) and rkeep == (0, 2)
    assert sorted(h.edges) == [Edge(0, 1, 0), Edge(1, 0, 0)]


def test_is_normal_form(i2, g43):
    assert is_normal_form(i2)
    assert not is_normal_form(g43)
    with pytest.raises(ValueError):
        is_normal_form(ColoredMultigraph.of(1, 2, 2, [(0, 0, 0)]))


def test_normal_form_ignores_isolated_padding(i2):
    padded = ColoredMultigraph.of(2, 5, 4, [tuple(e) for e in i2.edges])
    assert is_normal_form(padded)


def test_pick_pivot_lowest_missing_color(g43):
    assert pick_pivot(g43) == 0  # vertex 0 has color 0 only
    assert pick_pivot(mirror(g43), Side.RIGHT) == 0


def reference_pivot(g, side):
    """The pivot rule computed from per-vertex color sets; None when every
    vertex of the side carries every color."""
    for v in range(g.side_size(side)):
        if len(colors_at(g, side, v)) < g.n:
            return v
    return None


@given(st.one_of(counts_valid_graphs(max_n=4), proper_graphs()))
@settings(max_examples=200, deadline=None)
def test_pick_pivot_matches_color_set_reference(g):
    for side in Side:
        want = reference_pivot(g, side)
        if want is None:
            with pytest.raises(ValueError, match="no shift-applicable pivot"):
                pick_pivot(g, side)
        else:
            assert pick_pivot(g, side) == want


def test_pick_donor_policies(g43):
    assert pick_donor(g43, 0, PivotDonorPolicy.MAX_DRAIN) == 3
    assert pick_donor(g43, 0, PivotDonorPolicy.LAST_VERTEX) == 3


def reference_donor(work, pivot, policy):
    """The donor rule computed from per-vertex color sets."""
    if policy is PivotDonorPolicy.LAST_VERTEX:
        last = work.left_size - 1
        return last if last != pivot else last - 1
    pivot_colors = colors_at(work, Side.LEFT, pivot)
    return max(
        (v for v in range(work.left_size) if v != pivot),
        key=lambda v: (len(colors_at(work, Side.LEFT, v) - pivot_colors), v),
    )


@given(st.one_of(counts_valid_graphs(max_n=4), proper_graphs(min_side=2)))
@settings(max_examples=200, deadline=None)
def test_pick_donor_matches_color_set_reference(g):
    assume(g.left_size >= 2)
    for policy in PivotDonorPolicy:
        for pivot in range(g.left_size):
            assert pick_donor(g, pivot, policy) == reference_donor(g, pivot, policy)
        for pivot in range(g.right_size):
            got = pick_donor(g, pivot, policy, Side.RIGHT)
            assert got == reference_donor(mirror(g), pivot, policy)


def reference_reduce(g, policy):
    """The reduction loop written from per-vertex color sets and the
    reference shift on Edge values, with a full compaction after every
    shift, and every visited state keyed on its full canonical JSON text:
    no hash whose collision could fake a stall, and no skipped key.
    Returns the status, the final graph, the trace and both vertex maps."""
    cur, lmap, rmap = compact_isolated(g)
    target = g.n + 1
    max_iters = default_max_iters(g.n, cur.left_size, cur.right_size)
    trace = []
    alternate = Side.LEFT
    seen = set()
    while True:
        if cur.left_size == target and cur.right_size == target:
            return ReductionStatus.NORMALIZED, cur, trace, lmap, rmap
        state = (to_canonical_json(cur), alternate)
        if state in seen:
            return ReductionStatus.STALLED, cur, trace, lmap, rmap
        seen.add(state)
        if len(trace) >= max_iters:
            return ReductionStatus.ITERATION_CAP, cur, trace, lmap, rmap
        if cur.left_size > target and cur.right_size > target:
            side = alternate
            alternate = alternate.other()
        else:
            side = Side.LEFT if cur.left_size > target else Side.RIGHT
        work = cur if side is Side.LEFT else mirror(cur)
        pivot = reference_pivot(work, Side.LEFT)
        donor = reference_donor(work, pivot, policy)
        outcome = reference_shift(work, pivot, donor)
        back = outcome.graph if side is Side.LEFT else mirror(outcome.graph)
        cur, keep_l, keep_r = compact_isolated(back)
        lmap = tuple(lmap[i] for i in keep_l)
        rmap = tuple(rmap[i] for i in keep_r)
        trace.append(ReductionStep(side, pivot, donor, outcome.moves, outcome.swaps))


def test_stall_certificate_is_exact():
    statuses = set()
    for n, left, right, seeds in ((3, 6, 5, 200), (4, 7, 6, 200), (5, 8, 7, 30)):
        for seed in range(seeds):
            g = seeded(n, left, right, seed)
            for policy in PivotDonorPolicy:
                status, final, trace, lmap, rmap = reference_reduce(g, policy)
                out = reduce_to_normal_form(g, policy)
                assert out.status is status, (n, seed, policy)
                assert out.iterations == len(trace)
                assert list(out.trace) == trace
                assert out.graph == final
                assert (out.left_map, out.right_map) == (lmap, rmap), (n, seed, policy)
                statuses.add(status)
    assert ReductionStatus.STALLED in statuses and ReductionStatus.NORMALIZED in statuses


def test_readme_stalled_example():
    g = seeded(3, 6, 5, 17)
    assert canonical_digest(g) == "6c89ef7080d7f4a3"
    out = reduce_to_normal_form(g)
    assert out.status is ReductionStatus.STALLED
    assert out.iterations == 6


def test_reduction_golden_43(g43):
    out = reduce_to_normal_form(g43)
    assert out.status is ReductionStatus.NORMALIZED
    assert out.iterations == 1
    step = out.trace[0]
    assert (step.side, step.pivot, step.donor) == (Side.LEFT, 0, 3)
    assert step.moves == 1 and step.swaps == 0
    assert sorted(out.graph.edges) == [
        Edge(0, 0, 0), Edge(0, 0, 1),
        Edge(1, 1, 0), Edge(1, 1, 1),
        Edge(2, 2, 0), Edge(2, 2, 1),
    ]
    assert out.left_map == (0, 1, 2)
    assert out.right_map == (0, 1, 2)


def test_reduction_noop_on_normal(i2):
    out = reduce_to_normal_form(i2)
    assert out.status is ReductionStatus.NORMALIZED
    assert out.iterations == 0
    assert out.graph == i2


def test_reduction_compacts_a_huge_declared_side():
    # The console-script check's Latin square of order 4 with right vertex 3
    # relabeled 10^11: already normal once compacted, and nothing may be
    # built per declared vertex.
    huge = 10**11
    edges = [(0, huge, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0), (0, 2, 1), (1, 0, 1),
             (2, huge, 1), (3, 1, 1), (0, 1, 2), (1, huge, 2), (2, 0, 2), (3, 2, 2)]
    out = reduce_to_normal_form(ColoredMultigraph.of(3, 4, huge + 1, edges))
    assert (out.status, out.iterations) == (ReductionStatus.NORMALIZED, 0)
    assert (out.left_map, out.right_map) == ((0, 1, 2, 3), (0, 1, 2, huge))
    assert is_normal_form(out.graph)


def test_swap_trap_stalls_lastvertex(swap_trap):
    out = reduce_to_normal_form(swap_trap, PivotDonorPolicy.LAST_VERTEX)
    assert out.status is ReductionStatus.STALLED
    assert out.iterations == 2
    assert all(s.moves == 0 for s in out.trace)


def test_swap_trap_normalizes_maxdrain(swap_trap):
    out = reduce_to_normal_form(swap_trap, PivotDonorPolicy.MAX_DRAIN)
    assert out.status is ReductionStatus.NORMALIZED
    assert out.iterations == 2
    assert is_normal_form(out.graph)


def test_maxdrain_cycle_is_certified(cycle_instance):
    out = reduce_to_normal_form(cycle_instance)
    assert out.status is ReductionStatus.STALLED
    # The revisited state proves the loop; replaying the trace is exact.
    final = replay_trace(cycle_instance, out)
    assert canonical_digest(final) == canonical_digest(out.graph)


def test_iteration_cap(cycle_instance, g43):
    out = reduce_to_normal_form(g43, max_iters=0)
    assert out.status is ReductionStatus.ITERATION_CAP
    assert out.iterations == 0
    assert out.graph == g43
    # A finite cap below the cycle length reports the cap, not a stall.
    capped = reduce_to_normal_form(cycle_instance, max_iters=2)
    assert capped.status is ReductionStatus.ITERATION_CAP


def test_default_max_iters(i2):
    assert default_max_iters(i2.n, i2.left_size, i2.right_size) == 10 * 2 * 6


def test_the_default_cap_counts_only_carried_vertices(monkeypatch, g43):
    # The input padded with an isolated vertex at each end of each side,
    # and seed 11's first depth-1 level under maxdrain, whose first peel
    # isolates right vertex 1: each default cap is taken from the vertices
    # that carry edges, not from the declared sides.
    padded = ColoredMultigraph.of(2, 6, 5, [(u + 1, v + 1, c) for u, v, c in g43.edges])
    policy = PivotDonorPolicy.MAX_DRAIN
    top = reduce_trusted(seeded(4, 7, 6, 11), policy, None).level
    color, pivot, _ = peels(top)[0]
    level = reduce_lists(*peel(top, pivot, color), 3, policy, None).level
    color, pivot, _ = peels(level)[0]
    assert set(peel(level, pivot, color)[1]) == {0, 2, 3}
    sizes = []

    def recording(n, left_size, right_size):
        sizes.append((n, left_size, right_size))
        return default_max_iters(n, left_size, right_size)

    monkeypatch.setattr(reduction, "default_max_iters", recording)
    reduce_trusted(padded, policy, None)
    reduce_lists(*peel(level, pivot, color), 2, policy, None)
    assert sizes == [(2, 4, 3), (2, 3, 3)]


@given(padded_graphs(), st.sampled_from(PivotDonorPolicy), st.sampled_from([0, 1, None]))
@settings(max_examples=150, deadline=None)
def test_the_loop_drops_isolated_vertices_itself(case, policy, cap):
    # reduce_lists on the raw lists of a graph is reduce_trusted on it, and
    # both reduce it as the graph without its padding under the same cap,
    # renumbered: the default cap counts only the vertices that carry edges.
    g, padded, lpos, rpos = case
    us, vs, cs = map(list, zip(*padded.edges))
    got = reduce_lists(us, vs, cs, g.n, policy, cap)
    want = reduce_trusted(padded, policy, cap)
    for field in got._fields:
        assert getattr(got, field) == getattr(want, field), field
    assert got.level == (us, vs, cs)
    base = reduce_trusted(g, policy, cap)
    for field in ("status", "n", "level", "trace"):
        assert getattr(got, field) == getattr(base, field), field
    assert got.graph == base.graph
    assert got.left_map == tuple(lpos[u] for u in base.left_map)
    assert got.right_map == tuple(rpos[v] for v in base.right_map)


@given(counts_valid_graphs(max_n=4), st.sampled_from(PivotDonorPolicy))
@settings(max_examples=150, deadline=None)
def test_carried_masks_match_the_reference(g, policy):
    # reduce_lists keeps both sides' color masks across steps; the reference
    # rebuilds every vertex's colors from the edges after each shift.
    status, final, trace, lmap, rmap = reference_reduce(g, policy)
    out = reduce_lists(*map(list, zip(*g.edges)), g.n, policy, None)
    assert out.status is status
    assert list(out.trace) == trace
    assert out.graph == final
    assert (out.left_map, out.right_map) == (lmap, rmap)


def test_invalid_input_rejected(i2):
    with pytest.raises(ValueError):
        reduce_to_normal_form(delete_vertex(i2, Side.LEFT, 0))
    with pytest.raises(ValueError, match="reduction needs at least one color"):
        reduce_to_normal_form(ColoredMultigraph.of(0, 1, 1, []))


@given(counts_valid_graphs())
@settings(max_examples=200, deadline=None)
def test_reduction_invariants(g):
    out = reduce_to_normal_form(g)
    # Counts survive any outcome; shifts never create or destroy edges.
    assert validate(out.graph, require_counts=True).ok
    assert len(out.left_map) == out.graph.left_size
    assert len(out.right_map) == out.graph.right_size
    assert all(0 <= v < g.left_size for v in out.left_map)
    assert all(0 <= v < g.right_size for v in out.right_map)
    assert sorted(out.left_map) == list(out.left_map)  # compaction keeps order
    if out.status is ReductionStatus.NORMALIZED:
        assert is_normal_form(out.graph)
        assert out.graph.left_size == g.n + 1
        assert out.graph.right_size == g.n + 1


@given(counts_valid_graphs())
@settings(max_examples=100, deadline=None)
def test_trace_replay_reproduces_outcome(g):
    out = reduce_to_normal_form(g)
    final = replay_trace(g, out)
    assert sorted(final.edges) == sorted(out.graph.edges)


@given(counts_valid_graphs())
@settings(max_examples=100, deadline=None)
def test_normalized_vertices_have_every_color(g):
    out = reduce_to_normal_form(g)
    if out.status is not ReductionStatus.NORMALIZED:
        return
    h = out.graph
    for u in range(h.left_size):
        assert colors_at(h, Side.LEFT, u) == set(range(h.n))
    for v in range(h.right_size):
        assert colors_at(h, Side.RIGHT, v) == set(range(h.n))
