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
    Reductions,
    construct,
    peels,
)
from rainbowmatch.generators import GenKind, GenSpec, gen_latin
from rainbowmatch.graph import (
    Edge,
    Matching,
    Side,
    canonical_digest,
    delete_vertex,
    is_rainbow_matching,
)
from rainbowmatch.oracle import max_rainbow
from rainbowmatch.reduction import (
    DEFAULT_POLICY,
    PivotDonorPolicy,
    ReductionStatus,
    reduce_trusted,
)
from reference import delete_color, reference_construct
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
    g = gen_latin(GenSpec(GenKind.LATIN, 3, 4, 4, 2))
    out = construct(g, PeelStrategy.BACKTRACKING)
    assert out.status is ConstructStatus.MATCHED
    for depth, step in enumerate(out.trace):
        assert step.depth == depth
        assert step.edge in step.graph.edges
        assert step.edge.c == step.color
        assert step.edge.u == step.pivot


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
    out = construct(g, PeelStrategy.BACKTRACKING, budget=256)
    assert out.status is ConstructStatus.STEP_FAILED
    assert out.attempts == 25
    # A kept failure is strictly deeper than the one it replaces, so at most
    # one digest per depth.
    assert len(hashed) <= g.n
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


def test_reductions_reduce_under_their_cap(cycle_instance):
    reductions = Reductions(PivotDonorPolicy.LAST_VERTEX, 2)
    red = reductions[cycle_instance]
    assert red == reduce_trusted(cycle_instance, PivotDonorPolicy.LAST_VERTEX, 2)
    assert red.status is ReductionStatus.ITERATION_CAP
    assert reductions[cycle_instance] is red
    assert list(reductions) == [cycle_instance]
    uncapped = Reductions()[cycle_instance]
    assert uncapped == reduce_trusted(cycle_instance, DEFAULT_POLICY, None)
    assert uncapped.status is ReductionStatus.STALLED


def test_construct_reduces_under_the_cap_of_its_cache():
    g = seeded(3, 6, 5, 0)
    out = construct(g, PeelStrategy.BACKTRACKING, max_iters=0)
    assert out.status is ConstructStatus.STEP_FAILED
    assert (out.failure.depth, out.failure.reason) == (0, FailReason.REDUCTION_STALLED)
    assert construct(g, PeelStrategy.BACKTRACKING).status is ConstructStatus.MATCHED


def test_budget_limits_attempts(deficit_instance):
    out = construct(deficit_instance, PeelStrategy.BACKTRACKING, budget=3)
    assert out.attempts <= 3
    assert out.status is ConstructStatus.STEP_FAILED


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
    out = construct(g, PeelStrategy.BACKTRACKING, budget=64)
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
    edge = next(e for e in h.edges if e.u == pivot and e.c == 0)
    assert peels(h)[0] == (0, pivot, edge)


def test_matched_on_oversized_when_possible():
    hits = 0
    for seed in range(40):
        g = seeded(3, 6, 5, seed)
        out = construct(g, PeelStrategy.BACKTRACKING)
        if out.status is ConstructStatus.MATCHED:
            assert is_rainbow_matching(g, out.matching, 3)
            hits += 1
    assert hits > 0  # some oversized instances do lift cleanly


# Far above any search below: the reference walks every peel, 7830 of them
# on n=5 8x7.
NO_CAP = 10**6
BUDGETS = (0, 1, 7, 256)


@pytest.mark.parametrize("size, seeds", [((3, 6, 5), 100), ((4, 7, 6), 30), ((5, 8, 7), 10)])
def test_construct_matches_reference(size, seeds):
    # The reference runs every peel; construct skips those whose head edge
    # cannot be in the input matching, so it finds the same match or witness
    # in no more attempts, its kept failure no deeper.
    statuses = set()
    for seed in range(seeds):
        g = seeded(*size, seed)
        for strategy in PeelStrategy:
            for policy in PivotDonorPolicy:
                got = construct(g, strategy, budget=NO_CAP, policy=policy)
                want = reference_construct(g, strategy, NO_CAP, policy)
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
                # A cap the search stays within changes nothing; one it
                # reaches stops the same search after exactly that many.
                for budget in BUDGETS:
                    capped = construct(g, strategy, budget=budget, policy=policy)
                    if budget >= got.attempts:
                        assert capped == got, (key, budget)
                    else:
                        assert capped.status is ConstructStatus.STEP_FAILED, (key, budget)
                        assert capped.attempts == budget, (key, budget)
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
    out = construct(seeded(4, 7, 6, 0), PeelStrategy.BACKTRACKING, budget=256)
    assert out.attempts == 25 and out.candidate is not None
    assert results == [False]
    for seed in range(1, 30):
        results.clear()
        out = construct(seeded(4, 7, 6, seed), PeelStrategy.BACKTRACKING, budget=256)
        # The first candidate is checked whatever it holds; any later one
        # reaches the check only when it passes.
        assert len(results) <= 2 and all(results[1:]), seed
        assert (out.status is ConstructStatus.MATCHED) == (True in results), seed
