from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded
from rainbowmatch.construct import (
    ConstructStatus,
    FailReason,
    PeelStrategy,
    construct,
    peel,
    peels,
)
from rainbowmatch.generators import GenKind, GenSpec, gen_latin
from rainbowmatch.graph import (
    ColoredMultigraph,
    Edge,
    Matching,
    Side,
    canonical_digest,
    delete_vertex,
    is_rainbow_matching,
)
from rainbowmatch.oracle import max_rainbow
from rainbowmatch.reduction import (
    PivotDonorPolicy,
    ReductionStatus,
    reduce_lists,
    reduce_to_normal_form,
    reduce_trusted,
)
from reference import delete_color, peel_ref, reference_construct
from strategies import counts_valid_graphs


def test_base_case_i2(i2):
    out = construct(i2)
    assert out.status is ConstructStatus.MATCHED
    assert out.matching == Matching((Edge(0, 0, 0), Edge(1, 2, 1)))
    assert is_rainbow_matching(i2, out.matching, 2)
    assert out.trace == ()  # base case peels nothing


def test_latin_first_feasible():
    g = gen_latin(GenSpec(GenKind.LATIN, 3, 4, 4, 0))
    out = construct(g)
    assert out.status in (ConstructStatus.MATCHED, ConstructStatus.STEP_FAILED)
    if out.status is ConstructStatus.MATCHED:
        assert is_rainbow_matching(g, out.matching, 3)


def test_latin_backtracking_succeeds():
    for seed in range(20):
        g = gen_latin(GenSpec(GenKind.LATIN, 3, 4, 4, seed))
        out = construct(g, PeelStrategy.BACKTRACKING)
        assert out.status is ConstructStatus.MATCHED
        assert is_rainbow_matching(g, out.matching, 3)


def test_trace_coherence():
    # Each step's edge is an edge of its level, replayed from the input:
    # normalize, then peel the step's edge and normalize the residual.
    g = gen_latin(GenSpec(GenKind.LATIN, 3, 4, 4, 2))
    out = construct(g, PeelStrategy.BACKTRACKING)
    assert out.status is ConstructStatus.MATCHED
    level = reduce_to_normal_form(g).graph
    for depth, step in enumerate(out.trace):
        assert step.depth == depth
        assert step.edge in level.edges
        assert step.edge.c == step.color
        assert step.edge.u == step.pivot
        level = reduce_to_normal_form(peel_ref(level, step.edge)).graph
    assert level.n == 2


def test_matched_uses_peeled_colors_distinctly():
    g = gen_latin(GenSpec(GenKind.LATIN, 3, 4, 4, 4))
    out = construct(g, PeelStrategy.BACKTRACKING)
    assert out.status is ConstructStatus.MATCHED
    assert len({e.c for e in out.matching.edges}) == g.n


def test_deficit_instance_pinned(deficit_instance):
    assert canonical_digest(deficit_instance) == "2114ed8bc95ecb18"
    out = construct(deficit_instance, PeelStrategy.BACKTRACKING)
    assert out.status is ConstructStatus.STEP_FAILED
    assert out.failure.reason is FailReason.COUNT_DEFICIT
    assert out.failure.depth == 0
    assert out.failure.digest == canonical_digest(deficit_instance)
    # the instance itself is solvable, which is what makes it a finding
    assert max_rainbow(deficit_instance).max_size == 3
    # an assembled-but-unverifiable candidate is retained for analysis
    assert out.candidate is not None
    assert not is_rainbow_matching(deficit_instance, out.candidate, 3)


def test_digest_paid_only_for_kept_failures(monkeypatch):
    # The package re-exports the function construct, which shadows the
    # submodule attribute of the same name.
    module = importlib.import_module("rainbowmatch.construct")
    real = module.canonical_digest
    hashed = []

    def counting(g):
        hashed.append(g)
        return real(g)

    monkeypatch.setattr(module, "canonical_digest", counting)
    g = seeded(4, 7, 6, 0)
    out = construct(g, PeelStrategy.BACKTRACKING)
    assert out.status is ConstructStatus.STEP_FAILED
    assert out.attempts == 9
    # The failing level is hashed once, when the outcome is built, however
    # many failures the search ranked before it.
    assert len(hashed) == 1
    assert out.failure.to_dict() == {
        "depth": 1, "reason": "count_deficit", "digest": "506443fdad14f1b0",
    }
    assert [tuple(e) for e in out.candidate.edges] == [
        (0, 1, 0), (1, 1, 1), (2, 0, 2), (3, 2, 3),
    ]
    assert [(s.depth, s.color, s.pivot, tuple(s.edge)) for s in out.trace] == [
        (0, 0, 0, (0, 1, 0)), (1, 0, 0, (0, 1, 0)),
    ]


def test_stalled_instance_fails_cleanly(cycle_instance):
    out = construct(cycle_instance, PeelStrategy.BACKTRACKING)
    assert out.status is ConstructStatus.STEP_FAILED
    assert out.failure.reason is FailReason.REDUCTION_STALLED
    assert out.candidate is None


def test_construct_reduces_under_its_cap():
    # A reduction stopped by the cap is an iteration_cap failure, not a
    # stall: the entry reduction here, a residual's on the second instance,
    # whose input is already normal.
    g = seeded(3, 6, 5, 0)
    out = construct(g, PeelStrategy.BACKTRACKING, max_iters=0)
    assert out.status is ConstructStatus.STEP_FAILED
    assert (out.failure.depth, out.failure.reason, out.attempts) == (
        0, FailReason.ITERATION_CAP, 0
    )
    assert construct(g, PeelStrategy.BACKTRACKING).status is ConstructStatus.MATCHED
    normal = seeded(4, 6, 6, 108)
    assert reduce_trusted(normal, PivotDonorPolicy.MAX_DRAIN, None).iterations == 0
    out = construct(normal, PeelStrategy.BACKTRACKING, max_iters=0)
    assert (out.status, out.failure.reason, out.attempts) == (
        ConstructStatus.STEP_FAILED, FailReason.ITERATION_CAP, 20
    )
    assert construct(normal, PeelStrategy.BACKTRACKING).status is ConstructStatus.MATCHED


def test_cap_failure_outranks_a_deeper_one():
    # The search past a capped reduction is incomplete, which the reported
    # failure must say even when a later peel goes deeper: here a depth-0
    # residual caps while other peels reach the base and assemble the H5
    # witness.
    g = seeded(4, 6, 6, 237)
    out = construct(g, PeelStrategy.BACKTRACKING, max_iters=2)
    assert (out.failure.depth, out.failure.reason) == (0, FailReason.ITERATION_CAP)
    assert out.candidate is not None and len(out.trace) == 2
    assert construct(g, PeelStrategy.BACKTRACKING).status is ConstructStatus.MATCHED


def test_search_runs_every_peel_before_it_fails(deficit_instance):
    # No cap stops the search: Backtracking fails only after every peel the
    # reference runs that is not doomed and whose child can still lift,
    # FirstFeasible after its one pair.
    out = construct(deficit_instance, PeelStrategy.BACKTRACKING)
    assert out.status is ConstructStatus.STEP_FAILED
    assert out.failure.reason is FailReason.COUNT_DEFICIT
    assert out.attempts == 5
    want = reference_construct(
        deficit_instance, PeelStrategy.BACKTRACKING, PivotDonorPolicy.MAX_DRAIN
    )
    assert want.status is ConstructStatus.STEP_FAILED and want.attempts == 12
    assert construct(deficit_instance, PeelStrategy.FIRST_FEASIBLE).attempts == 1


def test_invalid_inputs(i2):
    with pytest.raises(ValueError):
        construct(delete_vertex(i2, Side.LEFT, 0))
    with pytest.raises(ValueError):
        construct(delete_color(i2, 0))


@given(counts_valid_graphs(max_n=3))
@settings(max_examples=150, deadline=None)
def test_soundness_never_lies(g):
    if g.n < 2:
        return
    out = construct(g, PeelStrategy.BACKTRACKING)
    if out.status is ConstructStatus.MATCHED:
        assert is_rainbow_matching(g, out.matching, g.n)
    else:
        assert out.matching is None
        assert out.failure is not None


@given(counts_valid_graphs(), st.sampled_from(PivotDonorPolicy))
@settings(max_examples=150, deadline=None)
def test_normal_form_peels_start_at_color_0s_lowest_pivot(g, policy):
    # Why construct and H3 need no branch for a normal form without a peel.
    red = reduce_trusted(g, policy, None)
    if red.status is not ReductionStatus.NORMALIZED:
        return
    h = red.graph
    assert all(sum(e.c == c for e in h.edges) == g.n + 1 for c in range(g.n))
    pivot = min(e.u for e in h.edges if e.c == 0)
    index = next(i for i, e in enumerate(h.edges) if e.u == pivot and e.c == 0)
    assert peels(tuple(zip(*h.edges)))[0] == (0, pivot, index)


def _assert_list_peels_reduce_like_graph_peels(h, policy, cap):
    # Every peel of the normal form h, on lists and through the kernel,
    # against reduce_trusted on the graph peel: status, edges in order and
    # both maps.
    level = tuple(zip(*h.edges))
    for color, pivot, i in peels(level):
        residual = peel_ref(h, h.edges[i])
        assert peel(level, pivot, color) == tuple(map(list, zip(*residual.edges)))
        want = reduce_trusted(residual, policy, cap)
        got = reduce_lists(*peel(level, pivot, color), h.n - 1, policy, cap)
        assert got.status is want.status
        assert (got.left_map, got.right_map) == (want.left_map, want.right_map)
        assert list(zip(*got.level)) == list(want.graph.edges)


@given(counts_valid_graphs(max_n=4), st.sampled_from(PivotDonorPolicy), st.sampled_from([0, 1, None]))
@settings(max_examples=100, deadline=None)
def test_list_peels_reduce_like_graph_peels(g, policy, cap):
    red = reduce_trusted(g, policy, None)
    if red.status is ReductionStatus.NORMALIZED and g.n >= 2:
        _assert_list_peels_reduce_like_graph_peels(red.graph, policy, cap)


@pytest.mark.parametrize("cap", [0, 1, None])
@pytest.mark.parametrize("policy", list(PivotDonorPolicy))
def test_list_peels_compact_an_isolated_right_vertex(policy, cap):
    # Seed 11's first depth-1 level under maxdrain: the pivot of its first
    # peel holds every other edge of right vertex 1, so the peel isolates it.
    def first_level(h):
        level = tuple(zip(*h.edges))
        color, pivot, i = peels(level)[0]
        return reduce_trusted(peel_ref(h, h.edges[i]), PivotDonorPolicy.MAX_DRAIN, None).graph

    h = first_level(reduce_trusted(seeded(4, 7, 6, 11), PivotDonorPolicy.MAX_DRAIN, None).graph)
    residual = peel_ref(h, h.edges[peels(tuple(zip(*h.edges)))[0][2]])
    assert {e.v for e in residual.edges} == set(range(residual.right_size)) - {1}
    _assert_list_peels_reduce_like_graph_peels(h, policy, cap)


@pytest.mark.parametrize("policy", list(PivotDonorPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("seed", [205, 816])
def test_completion_check_reads_level_coordinates(seed, policy):
    # Right vertex 5 survives the entry reduction of both instances, and past
    # the H5 witness their searches reject peels whose child has no matching
    # left to lift; seed 816 matches on vertex 5, seed 205 fails at depth 1.
    # Relabeled 10^12, the search must run as before: the check gathers a
    # level's edges in the level's own indices, where a bit per input index
    # would need 10^12 bits.
    huge = 10**12
    g = seeded(4, 7, 6, seed)
    relabel = lambda v: huge if v == 5 else v
    edges = [(u, relabel(v), c) for u, v, c in g.edges]
    wide = ColoredMultigraph.of(g.n, g.left_size, huge + 1, edges)
    want = construct(g, PeelStrategy.BACKTRACKING, policy=policy).to_dict()
    for key in ("matching", "candidate"):
        if want[key] is not None:
            want[key] = [[u, relabel(v), c] for u, v, c in want[key]]
    assert construct(wide, PeelStrategy.BACKTRACKING, policy=policy).to_dict() == want


def test_matched_on_oversized_when_possible():
    hits = 0
    for seed in range(40):
        g = seeded(3, 6, 5, seed)
        out = construct(g, PeelStrategy.BACKTRACKING)
        if out.status is ConstructStatus.MATCHED:
            assert is_rainbow_matching(g, out.matching, 3)
            hits += 1
    assert hits > 0  # some oversized instances do lift cleanly


@pytest.mark.parametrize("size, seeds", [((3, 6, 5), 100), ((4, 7, 6), 30), ((5, 8, 7), 10)])
def test_construct_matches_reference(size, seeds):
    # The reference runs every peel; past the witness construct skips those
    # whose head edge cannot be in the input matching or whose child has no
    # matching of the input left to lift, so it finds the same match or
    # witness in no more attempts, its kept failure no deeper.
    statuses = set()
    for seed in range(seeds):
        g = seeded(*size, seed)
        for strategy in PeelStrategy:
            for policy in PivotDonorPolicy:
                got = construct(g, strategy, policy=policy)
                want = reference_construct(g, strategy, policy)
                key = (size, seed, strategy, policy)
                assert (got.status, got.matching, got.candidate) == (
                    want.status, want.matching, want.candidate
                ), key
                assert got.attempts <= want.attempts, key
                if got.failure is not None:
                    assert got.failure.depth <= want.failure.depth, key
                if got.matching is not None or got.candidate is not None:
                    assert got.trace == want.trace, key
                statuses.add((got.status, got.candidate is not None))
    # Failures with and without an H5 witness occur, and matches: on n=5
    # 8x7 only seed 9 under lastvertex, after 115 of the reference's 3446.
    assert (ConstructStatus.STEP_FAILED, True) in statuses
    assert (ConstructStatus.STEP_FAILED, False) in statuses
    assert (ConstructStatus.MATCHED, False) in statuses


def _count_final_checks(monkeypatch) -> list[bool]:
    # The package re-exports the function construct, which shadows the
    # submodule attribute of the same name.
    module = importlib.import_module("rainbowmatch.construct")
    real = module.is_rainbow_matching
    results: list[bool] = []

    def counting(g, m, k):
        results.append(real(g, m, k))
        return results[-1]

    monkeypatch.setattr(module, "is_rainbow_matching", counting)
    return results


def test_only_the_witness_and_the_match_reach_the_final_check(monkeypatch):
    results = _count_final_checks(monkeypatch)
    out = construct(seeded(4, 7, 6, 0), PeelStrategy.BACKTRACKING)
    assert out.attempts == 9 and out.candidate is not None
    assert results == [False]
    for seed in range(1, 30):
        results.clear()
        out = construct(seeded(4, 7, 6, seed), PeelStrategy.BACKTRACKING)
        # The first candidate is checked whatever it holds; any later one
        # reaches the check only when it passes.
        assert len(results) <= 2 and all(results[1:]), seed
        assert (out.status is ConstructStatus.MATCHED) == (True in results), seed
