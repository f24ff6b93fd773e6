from __future__ import annotations

import importlib
import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import get_context
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from conftest import seeded
from rainbowmatch import harness
from rainbowmatch.construct import PeelStrategy, construct
from rainbowmatch.generators import GenKind, GenSpec, instances_for, random_spec_stream
from rainbowmatch.graph import (
    ColoredMultigraph,
    Side,
    canonical_digest,
    delete_vertex,
    from_dict,
    json_lines,
    to_dict,
    validate,
)
from rainbowmatch.harness import (
    CampaignRecord,
    EvalOptions,
    H1Mode,
    Hypothesis,
    InstanceRun,
    Verdict,
    evaluate,
    minimize,
    replay,
    run_campaign,
    violation_predicate,
    write_records,
)
from rainbowmatch.oracle import max_rainbow
from rainbowmatch.reduction import PivotDonorPolicy, ReductionStatus, compact_isolated
from reference import counts_valid, delete_color, reference_h1_all
from strategies import counts_valid_graphs, padded_graphs

# Proper, but one edge per color where the hypotheses need n + 1 = 3.
SHORT = ColoredMultigraph.of(2, 3, 3, [(0, 0, 0), (0, 0, 1)])
# The 36 instances of n = 2 on 3x3.
ENUM = GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)


def strip_ms(rec) -> dict:
    """A record or summary as a dict without its one timing key."""
    d = json.loads(rec.to_json_line()) if isinstance(rec, CampaignRecord) else rec.to_dict()
    del d["ms"]
    return d


def stripped(campaign) -> tuple[list[dict], list[dict]]:
    summaries, records = campaign
    return [strip_ms(s) for s in summaries], [strip_ms(r) for r in records]


def test_conj_holds(i2):
    verdict, witness = evaluate(Hypothesis.CONJ, i2)
    assert verdict is Verdict.HOLDS
    assert witness is None


def test_h2_holds(i2, g43):
    assert evaluate(Hypothesis.H2, i2)[0] is Verdict.HOLDS
    assert evaluate(Hypothesis.H2, g43)[0] is Verdict.HOLDS


def test_h2_violated_on_cycle(cycle_instance):
    verdict, witness = evaluate(Hypothesis.H2, cycle_instance)
    assert verdict is Verdict.VIOLATED
    assert witness["status"] == "stalled"
    assert from_dict(witness["instance"]).edges == cycle_instance.edges


def test_h2_violated_lastvertex(swap_trap):
    opts = EvalOptions(policy=PivotDonorPolicy.LAST_VERTEX)
    verdict, witness = evaluate(Hypothesis.H2, swap_trap, opts)
    assert verdict is Verdict.VIOLATED
    assert witness["opts"]["policy"] == "lastvertex"


def test_h2_cap_inconclusive(cycle_instance):
    opts = EvalOptions(max_iters=2)
    verdict, witness = evaluate(Hypothesis.H2, cycle_instance, opts)
    assert verdict is Verdict.INCONCLUSIVE
    assert witness["status"] == "iteration_cap"


def test_h1_policy_inconclusive_on_normal(i2):
    # No reduction step exists, so there is nothing to test.
    assert evaluate(Hypothesis.H1, i2)[0] is Verdict.INCONCLUSIVE


def test_h1_policy_holds_on_golden(g43):
    assert evaluate(Hypothesis.H1, g43)[0] is Verdict.HOLDS


@pytest.mark.parametrize("policy", list(PivotDonorPolicy))
def test_h1_policy_tests_the_reductions_first_step(g43, policy):
    # Under a cap of 0 the reduction takes no step, so there is none to test.
    capped = EvalOptions(policy=policy, max_iters=0)
    assert evaluate(Hypothesis.H1, g43, capped) == (Verdict.INCONCLUSIVE, None)
    one = EvalOptions(policy=policy, max_iters=1)
    assert evaluate(Hypothesis.H1, g43, one) == (Verdict.HOLDS, None)


def test_h1_all_mode(g43, i2):
    opts = EvalOptions(h1_mode=H1Mode.ALL)
    assert evaluate(Hypothesis.H1, g43, opts)[0] is Verdict.HOLDS
    # swap-only pairs are exercised too on a normal-form instance
    assert evaluate(Hypothesis.H1, i2, opts)[0] is Verdict.HOLDS
    # An edgeless instance is outside the hypotheses' domain.
    edgeless = ColoredMultigraph.of(1, 2, 2, [])
    with pytest.raises(ValueError, match="color 0 has 0 edges, expected 2"):
        evaluate(Hypothesis.H1, edgeless, opts)


def test_h1_all_mode_answers_on_a_huge_declared_side():
    # Of 10^6 left vertices only 0 and 999999 carry edges.
    g = from_dict({"n": 1, "left": 1000000, "right": 2, "edges": [[999999, 0, 0], [0, 1, 0]]})
    assert evaluate(Hypothesis.H1, g, EvalOptions(h1_mode=H1Mode.ALL)) == (Verdict.HOLDS, None)


def _full_degree_count(g: ColoredMultigraph) -> SimpleNamespace:
    """A stand-in for the oracle that, like the maximum, ignores vertex
    names, but that shifts do move across n: the number of left vertices
    carrying all n colors."""
    degrees = Counter(e.u for e in g.edges)
    return SimpleNamespace(max_size=sum(d == g.n for d in degrees.values()))


def _full_degree_count_edges(es, target):
    """The same stand-in on H1's shifted edge lists, searched to target n."""
    degrees = Counter(e[0] for e in es)
    return (None,) * sum(d == target for d in degrees.values()), 0


@pytest.mark.parametrize("stand_in", [False, True], ids=["oracle", "full-degree-count"])
def test_h1_all_mode_matches_the_loop_over_every_declared_pivot(monkeypatch, stand_in):
    # Pairing only left vertices with edges skips the shifts onto isolated
    # pivots, which only relabel; verdicts and first witnesses stay the same.
    maximum = lambda g: max_rainbow(g).max_size
    if stand_in:
        monkeypatch.setattr(harness, "max_rainbow_trusted", _full_degree_count)
        monkeypatch.setattr(harness, "max_rainbow_edges", _full_degree_count_edges)
        maximum = lambda g: _full_degree_count(g).max_size
    opts = EvalOptions(h1_mode=H1Mode.ALL)
    violated = isolated = 0
    for left in (6, 9):
        for seed in range(30):
            g = seeded(3, left, 5, seed)
            isolated += len({e.u for e in g.edges}) < left
            want = reference_h1_all(g, maximum)
            verdict, witness = evaluate(Hypothesis.H1, g, opts)
            if want is None:
                assert (verdict, witness) == (Verdict.HOLDS, None), (left, seed)
            else:
                violated += 1
                assert verdict is Verdict.VIOLATED, (left, seed)
                assert {k: witness[k] for k in want} == want, (left, seed)
    assert isolated > 0
    assert violated > 0 if stand_in else violated == 0


def test_h1_all_over_enumeration():
    opts = EvalOptions(h1_mode=H1Mode.ALL)
    (summary,), _ = run_campaign(
        (Hypothesis.CONJ,), [GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)]
    )
    assert summary.holds == 36
    (h1,), _ = run_campaign(
        (Hypothesis.H1,), [GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)], opts=opts
    )
    assert h1.trials == 36
    assert h1.violated == 0


def test_campaign_empty_stream():
    (summary,), records = run_campaign((Hypothesis.H2,), [])
    assert summary.trials == 0
    assert records == []
    assert not summary.truncated


def test_h3_verdicts():
    holds = violated = 0
    for seed in range(30):
        g = seeded(3, 6, 5, seed)
        verdict, witness = evaluate(Hypothesis.H3, g)
        if verdict is Verdict.VIOLATED:
            violated += 1
            assert witness["peeled_right"] is not None
        elif verdict is Verdict.HOLDS:
            holds += 1
    assert violated > 0 and holds > 0


def test_h3_and_the_construction_reduce_the_first_peel_once(monkeypatch):
    # H3 tests the construction's first peel, so whatever the order of the
    # hypotheses, all six reduce exactly the residuals H4 alone reduces.
    # The run's Induction reduces the first peel's residual and the search
    # the rest, both by construct's name.  The package's `construct`
    # attribute is the function, not the module.
    module = importlib.import_module("rainbowmatch.construct")
    real = module.reduce_lists
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "reduce_lists", counting)
    specs = list(random_spec_stream(3, 6, 5, 0, 100))
    run_campaign((Hypothesis.H4,), specs)
    alone = len(calls)
    assert alone > 100
    for hyps in (tuple(Hypothesis), tuple(Hypothesis)[::-1]):
        calls.clear()
        run_campaign(hyps, specs)
        assert len(calls) == alone, hyps


@pytest.mark.parametrize("cap", [None, 0, 2])
@pytest.mark.parametrize("policy", list(PivotDonorPolicy))
def test_construct_and_the_run_construction_are_one_search(policy, cap):
    # The public construct and a run's construction are one Induction's
    # search, with the same whole outcome, whether or not the run's H3 read
    # the first peel before the search starts from it.
    opts = EvalOptions(policy=policy, max_iters=cap)
    graphs = [
        *instances_for(ENUM),
        *(seeded(3, 6, 5, seed) for seed in range(40)),
        *(seeded(4, 7, 6, seed) for seed in range(15)),
    ]
    peeled_first = 0
    for g in graphs:
        want = construct(g, PeelStrategy.BACKTRACKING, policy=policy, max_iters=cap)
        assert InstanceRun(g, opts).construction == want, canonical_digest(g)
        run = InstanceRun(g, opts)
        evaluate(Hypothesis.H3, g, opts, run)
        peeled_first += "first_peel" in vars(run)
        assert run.construction == want, canonical_digest(g)
    assert peeled_first > 0


def test_h4_h5_on_pinned(deficit_instance):
    v4, w4 = evaluate(Hypothesis.H4, deficit_instance)
    assert v4 is Verdict.VIOLATED
    assert w4["oracle_max"] == 3
    assert w4["failure"]["reason"] == "count_deficit"
    v5, w5 = evaluate(Hypothesis.H5, deficit_instance)
    assert v5 is Verdict.VIOLATED
    assert len(w5["candidate"]) == 3


@pytest.mark.parametrize(
    "seed, verdicts, attempts",
    [(20, (Verdict.VIOLATED, Verdict.VIOLATED), 52), (62, (Verdict.HOLDS, Verdict.HOLDS), 124)],
    ids=["violated-20", "holds-62"],
)
def test_h4_is_exact_past_the_old_cap(seed, verdicts, attempts):
    # The search has no budget: H4 is violated only once no peel sequence
    # lifts.  A cap of 256 peels left H4 inconclusive on both instances, and
    # H5 violated on the second.
    run = InstanceRun(seeded(5, 8, 7, seed), EvalOptions())
    got = tuple(evaluate(hyp, run.g, run.opts, run)[0] for hyp in (Hypothesis.H4, Hypothesis.H5))
    assert got == verdicts
    assert run.construction.attempts == attempts


def test_h4_is_violated_when_the_input_does_not_normalize():
    # An input whose reduction stalls has no peel to run: the search fails
    # before any attempt, and that failure is exhaustive.
    stalled = 0
    for seed in range(50):
        run = InstanceRun(seeded(4, 7, 6, seed), EvalOptions())
        verdict, witness = evaluate(Hypothesis.H4, run.g, run.opts, run)
        if run.reduction.status is ReductionStatus.STALLED:
            assert run.construction.attempts == 0, seed
            assert witness["failure"]["reason"] == "reduction_stalled", seed
            assert verdict is Verdict.VIOLATED, seed
            stalled += 1
        else:
            assert run.construction.attempts > 0, seed
    assert stalled > 0


def test_h4_is_inconclusive_when_a_reduction_cap_binds():
    # A search stopped by the reduction's iteration cap has not run out of
    # peels either, whether the entry reduction caps or a residual's does.
    for seed in range(50):
        verdict, witness = evaluate(Hypothesis.H4, seeded(4, 7, 6, seed), EvalOptions(max_iters=0))
        assert verdict is Verdict.INCONCLUSIVE, seed
        assert witness["failure"]["reason"] == "iteration_cap", seed
    g = seeded(4, 6, 6, 237)
    assert evaluate(Hypothesis.H4, g)[0] is Verdict.HOLDS
    verdict, witness = evaluate(Hypothesis.H4, g, EvalOptions(max_iters=2))
    assert verdict is Verdict.INCONCLUSIVE
    assert witness["failure"] == {"depth": 0, "reason": "iteration_cap", "digest": canonical_digest(g)}


def test_h4_h5_hold_on_latin():
    from rainbowmatch.generators import gen_latin

    g = gen_latin(GenSpec(GenKind.LATIN, 3, 4, 4))
    assert evaluate(Hypothesis.H4, g)[0] is Verdict.HOLDS
    assert evaluate(Hypothesis.H5, g)[0] is Verdict.HOLDS


@pytest.mark.parametrize(
    "hyp, mode",
    [(Hypothesis.CONJ, H1Mode.POLICY), (Hypothesis.H1, H1Mode.POLICY), (Hypothesis.H1, H1Mode.ALL)],
    ids=["CONJ", "H1-policy", "H1-all"],
)
def test_instance_short_of_n_plus_one_edges_per_color_is_rejected(hyp, mode):
    # CONJ used to call this instance violated, and replay to reproduce it.
    with pytest.raises(ValueError) as exc:
        evaluate(hyp, SHORT, EvalOptions(h1_mode=mode))
    assert str(exc.value) == "invalid graph: color 0 has 1 edges, expected 3"


@pytest.mark.parametrize("hyp", list(Hypothesis), ids=lambda h: h.value)
def test_instance_without_colors_is_rejected(hyp):
    with pytest.raises(ValueError, match="at least one color"):
        evaluate(hyp, ColoredMultigraph.of(0, 1, 1, []))


def test_small_n_inconclusive():
    g = seeded(1, 2, 2, 0)
    for hyp in (Hypothesis.H3, Hypothesis.H4, Hypothesis.H5):
        assert evaluate(hyp, g)[0] is Verdict.INCONCLUSIVE


def test_campaign_counts_and_records():
    specs = random_spec_stream(3, 6, 5, 0, 50)
    (summary,), records = run_campaign((Hypothesis.H3,), specs)
    assert summary.trials == 50
    assert summary.holds + summary.violated + summary.inconclusive == 50
    assert not summary.truncated
    assert len(records) == 50
    rec = records[0]
    assert rec.hypothesis is Hypothesis.H3
    assert rec.spec.kind is GenKind.RANDOM
    line = json.loads(rec.to_json_line())
    assert set(line) == {"hyp", "digest", "verdict", "spec", "witness", "ms"}


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_budget_truncates(workers):
    (summary,), records = run_campaign((Hypothesis.CONJ,), [ENUM], budget=10, workers=workers)
    assert summary.trials == len(records) == 10
    assert summary.truncated
    (full,), _ = run_campaign((Hypothesis.CONJ,), [ENUM], budget=36, workers=workers)
    assert not full.truncated
    # The cap counts the instances of the whole stream: it may cut a spec
    # part-way or fall on a spec's end.
    for specs, budget, truncated in [
        ([ENUM, ENUM], 36, True),
        ([ENUM, ENUM], 40, True),
        ([ENUM, ENUM], 72, False),
        ([ENUM, ENUM], 0, True),
    ]:
        (s,), recs = run_campaign((Hypothesis.CONJ,), specs, budget=budget, workers=workers)
        want = min(budget, 36 * specs.count(ENUM))
        assert (s.trials, len(recs), s.truncated) == (want, want, truncated), (specs, budget)


def test_campaign_workers_match_sequential():
    specs = list(random_spec_stream(3, 6, 5, 0, 40))
    (s1,), r1 = run_campaign((Hypothesis.H2,), specs)
    (s2,), r2 = run_campaign((Hypothesis.H2,), specs, workers=3)
    assert [r.to_json_line() for r in r1] != []
    assert [strip_ms(r) for r in r1] == [strip_ms(r) for r in r2]
    assert (s1.holds, s1.violated, s1.inconclusive) == (s2.holds, s2.violated, s2.inconclusive)


def test_capped_random_stream_is_the_same_for_any_worker_count():
    specs = list(random_spec_stream(3, 6, 5, 0, 50))
    hyps = (Hypothesis.H2, Hypothesis.H4)
    one = stripped(run_campaign(hyps, specs, budget=20))
    assert stripped(run_campaign(hyps, specs, budget=20, workers=2)) == one
    summaries, records = one
    assert [(s["trials"], s["truncated"]) for s in summaries] == [(20, True)] * 2
    # The capped records are the first 20 of each hypothesis's column.
    _, full = stripped(run_campaign(hyps, specs))
    assert records == full[:20] + full[50:70]


class RecordingPool(ProcessPoolExecutor):
    """A process pool that keeps every spec handed to its ``map``."""

    submitted: list = []

    def map(self, fn, *iterables, **kwargs):
        specs = list(iterables[0])
        RecordingPool.submitted.extend(specs)
        return super().map(fn, specs, *iterables[1:], **kwargs)


@pytest.mark.parametrize("budget", [2, 9, 20])
def test_capped_pooled_campaign_submits_at_most_budget_specs(monkeypatch, budget):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "submitted", [])
    specs = list(random_spec_stream(3, 6, 5, 0, 100))
    pooled = stripped(run_campaign((Hypothesis.H2,), specs, budget=budget, workers=2))
    assert RecordingPool.submitted == specs[:budget]
    assert pooled == stripped(run_campaign((Hypothesis.H2,), specs, budget=budget))
    assert [(s["trials"], s["truncated"]) for s in pooled[0]] == [(budget, True)]


@pytest.mark.parametrize("budget", [None, 0, 10, 36, 40, 108])
@pytest.mark.parametrize("workers", [1, 2])
def test_capped_campaign_evaluates_exactly_its_budget(monkeypatch, tmp_path, workers, budget):
    # Each evaluated instance appends a byte to one file, so the instances
    # that pool workers evaluate count too; the workers are forked so that
    # they inherit the counting wrapper.
    tally = tmp_path / "evaluated"
    tally.touch()
    real = harness._eval_instance

    def counting(*args):
        with open(tally, "a", encoding="utf-8") as f:
            f.write(".")
        return real(*args)

    monkeypatch.setattr(harness, "_eval_instance", counting)
    monkeypatch.setattr(
        "concurrent.futures.ProcessPoolExecutor",
        partial(ProcessPoolExecutor, mp_context=get_context("fork")),
    )
    (summary,), records = run_campaign(
        (Hypothesis.CONJ,), [ENUM] * 3, budget=budget, workers=workers
    )
    want = 108 if budget is None else min(budget, 108)
    assert tally.stat().st_size == summary.trials == len(records) == want
    assert summary.truncated == (want < 108)


@pytest.mark.parametrize(
    "specs", [[], [GenSpec(GenKind.RANDOM, 3, 6, 5, 4)]], ids=["empty", "one-spec"]
)
def test_two_workers_on_a_stream_too_short_to_share(specs):
    hyps = (Hypothesis.H2, Hypothesis.H4)
    assert stripped(run_campaign(hyps, specs, workers=2)) == stripped(run_campaign(hyps, specs))


def test_two_workers_match_one_on_n4_construction():
    specs = list(random_spec_stream(4, 7, 6, 0, 20))
    hyps = (Hypothesis.H4, Hypothesis.H5)
    one = stripped(run_campaign(hyps, specs))
    assert len(one[1]) == 40
    assert stripped(run_campaign(hyps, specs, workers=2)) == one


def test_records_file_round_trip(tmp_path):
    specs = random_spec_stream(3, 6, 5, 0, 20)
    _, records = run_campaign((Hypothesis.H3,), specs)
    path = tmp_path / "h3.jsonl"
    write_records(records, path)
    with open(path, encoding="utf-8") as f:
        loaded = list(json_lines(f))
    assert len(loaded) == 20
    assert loaded[0]["hyp"] == "H3"


def test_replay_reproduces_all(tmp_path):
    _, records = run_campaign((Hypothesis.H3,), random_spec_stream(3, 6, 5, 0, 60))
    lines = [json.loads(r.to_json_line()) for r in records]
    report = replay(lines)
    assert report.ok
    assert report.reproduced == report.violated > 0


def test_replay_catches_tampering():
    _, records = run_campaign((Hypothesis.H3,), random_spec_stream(3, 6, 5, 0, 30))
    lines = [json.loads(r.to_json_line()) for r in records]
    tampered = next(l for l in lines if l["verdict"] == "violated")
    # single-color instances are inconclusive for H3, never violated
    tampered["witness"]["instance"] = to_dict(seeded(1, 2, 2, 0))
    report = replay(lines)
    assert not report.ok
    assert len(report.mismatches) == 1


def test_minimize_h3():
    g = seeded(3, 6, 5, 0)
    pred = violation_predicate(Hypothesis.H3)
    small = minimize(g, pred)
    assert pred(small)
    assert validate(small, require_counts=True).ok
    assert len(small.edges) <= len(g.edges)


def test_minimize_is_one_minimal():
    g = seeded(3, 6, 5, 17)
    pred = violation_predicate(Hypothesis.H2)
    small = minimize(g, pred)
    for c in range(small.n):
        assert not pred(delete_color(small, c))
    for side in (Side.LEFT, Side.RIGHT):
        for v in range(small.side_size(side)):
            assert not pred(delete_vertex(small, side, v))


@given(counts_valid_graphs())
def test_minimize_can_only_drop_isolated_vertices(g):
    # Deleting a color leaves n - 1 colors of n + 1 edges each; deleting a
    # vertex that carries an edge leaves some color with n.  Either fails the
    # counts, so a shrink keeps every color and every edge, and under any
    # predicate ends at the instance's compaction.
    for c in range(g.n):
        assert not counts_valid(delete_color(g, c))
    for side in Side:
        carried = {e.u if side is Side.LEFT else e.v for e in g.edges}
        for v in range(g.side_size(side)):
            assert counts_valid(delete_vertex(g, side, v)) == (v not in carried)
    assert minimize(g, lambda h: True) == compact_isolated(g)[0]


@given(padded_graphs())
@settings(max_examples=150, deadline=None)
def test_every_verdict_ignores_isolated_vertices(case):
    # The invariant minimize relies on: a verdict reads only the edges, so
    # padding an instance with isolated vertices moves none, under any
    # policy, H1 mode or cap.
    g, padded, _, _ = case
    for policy in PivotDonorPolicy:
        for h1_mode in H1Mode:
            for cap in (None, 0, 1, 2):
                opts = EvalOptions(h1_mode, policy, cap)
                run, padded_run = InstanceRun(g, opts), InstanceRun(padded, opts)
                for hyp in Hypothesis:
                    verdict = evaluate(hyp, g, opts, run)[0]
                    assert evaluate(hyp, padded, opts, padded_run)[0] is verdict, (hyp, opts)


OUT_OF_DOMAIN = {
    "short-color-class": SHORT,
    "no-colors": ColoredMultigraph.of(0, 1, 1, []),
    # Counts-valid, but color 0 meets left vertex 0 twice.
    "improper": ColoredMultigraph.of(
        2, 4, 3, [(0, 0, 0), (0, 1, 0), (2, 2, 0), (3, 0, 1), (1, 1, 1), (2, 2, 1)]
    ),
    "edge-out-of-bounds": ColoredMultigraph.of(1, 2, 2, [(5, 0, 0), (1, 1, 0)]),
}


@pytest.mark.parametrize("g", OUT_OF_DOMAIN.values(), ids=OUT_OF_DOMAIN.keys())
@pytest.mark.parametrize("hyp", list(Hypothesis), ids=lambda h: h.value)
def test_violation_predicate_is_false_outside_the_domain(hyp, g):
    assert counts_valid(g) is False
    assert violation_predicate(hyp)(g) is False


def test_minimize_rejects_non_violating(i2):
    pred = violation_predicate(Hypothesis.CONJ)
    with pytest.raises(ValueError):
        minimize(i2, pred)


@pytest.mark.parametrize("key", ["max_iters"])
def test_eval_options_reject_negative_numbers(key):
    # Made from the library as well as parsed: a negative cap would
    # otherwise read as an inconclusive H2.
    for make in (EvalOptions.from_dict, lambda d: EvalOptions(**d)):
        with pytest.raises(ValueError, match="max_iters must be non-negative"):
            make({key: -1})
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="max_iters must be integers"):
                make({key: bad})


def test_eval_options_round_trip():
    opts = EvalOptions(
        h1_mode=H1Mode.ALL,
        policy=PivotDonorPolicy.LAST_VERTEX,
        max_iters=13,
    )
    assert EvalOptions.from_dict(opts.to_dict()) == opts


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_hypothesis_campaign_matches_single_runs(workers):
    specs = list(random_spec_stream(3, 6, 5, 0, 30))
    hyps = tuple(Hypothesis)
    summaries, records = run_campaign(hyps, specs, workers=workers)
    single = []
    for hyp, summary in zip(hyps, summaries):
        (alone,), recs = run_campaign((hyp,), specs, workers=workers)
        assert summary.hypothesis is hyp
        assert (summary.trials, summary.holds, summary.violated, summary.inconclusive) == (
            alone.trials, alone.holds, alone.violated, alone.inconclusive
        )
        single.extend(recs)
    assert [strip_ms(r) for r in records] == [strip_ms(r) for r in single]


def test_replay_group_key_includes_opts():
    _, records = run_campaign(
        (Hypothesis.H4, Hypothesis.H5), random_spec_stream(3, 6, 5, 0, 20)
    )
    lines = [json.loads(r.to_json_line()) for r in records]
    half = len(lines) // 2
    i = next(
        i for i in range(half)
        if lines[i]["verdict"] == lines[half + i]["verdict"] == "violated"
    )
    pair = [lines[i], lines[half + i]]
    assert pair[0]["witness"]["instance"] == pair[1]["witness"]["instance"]
    assert replay(pair).ok
    # With no reduction step allowed the search stops at the cap, so H4 and
    # H5 both turn inconclusive under those options.  Replay groups records
    # by instance and options, so only a record that carries them fails.
    pair[1]["witness"]["opts"]["max_iters"] = 0
    report = replay(pair)
    assert report.violated == 2
    assert report.mismatches == (1,)
    pair[0]["witness"]["opts"]["max_iters"] = 0
    assert replay(pair).mismatches == (0, 1)


def test_evaluate_rejects_foreign_run(i2, g43):
    run = InstanceRun(g43, EvalOptions())
    assert evaluate(Hypothesis.CONJ, g43, EvalOptions(), run)[0] is Verdict.HOLDS
    with pytest.raises(ValueError):
        evaluate(Hypothesis.CONJ, i2, EvalOptions(), run)
    with pytest.raises(ValueError):
        evaluate(Hypothesis.CONJ, g43, EvalOptions(max_iters=1), run)


# (holds, violated, inconclusive) per hypothesis on n=4 7x6 seeds 0-199, the
# Tier-1 slice of the 10^4-seed n=4 campaign.
N4_VERDICTS = {
    PivotDonorPolicy.MAX_DRAIN: {
        "H1": (200, 0, 0), "H2": (128, 72, 0), "H3": (25, 103, 72),
        "H4": (26, 174, 0), "H5": (26, 102, 72), "CONJ": (200, 0, 0),
    },
    PivotDonorPolicy.LAST_VERTEX: {
        "H1": (200, 0, 0), "H2": (99, 101, 0), "H3": (19, 80, 101),
        "H4": (22, 178, 0), "H5": (22, 77, 101), "CONJ": (200, 0, 0),
    },
}


@pytest.mark.parametrize("policy", list(N4_VERDICTS), ids=lambda p: p.value)
def test_n4_verdict_counts(policy):
    summaries, _ = run_campaign(
        tuple(Hypothesis), random_spec_stream(4, 7, 6, 0, 200), opts=EvalOptions(policy=policy)
    )
    got = {s.hypothesis.value: (s.holds, s.violated, s.inconclusive) for s in summaries}
    assert got == N4_VERDICTS[policy]


# (holds, violated, inconclusive) for H4 and H5 on n=5 8x7 seeds 0-49 and
# n=6 9x8 seeds 0-19, the sizes where past the H5 witness most peels have no
# matching left to lift and are not run.
DEEP_VERDICTS = {
    ((5, 8, 7), 50, PivotDonorPolicy.MAX_DRAIN): {"H4": (3, 47, 0), "H5": (3, 23, 24)},
    ((5, 8, 7), 50, PivotDonorPolicy.LAST_VERTEX): {"H4": (2, 48, 0), "H5": (2, 14, 34)},
    ((6, 9, 8), 20, PivotDonorPolicy.MAX_DRAIN): {"H4": (4, 16, 0), "H5": (4, 6, 10)},
    ((6, 9, 8), 20, PivotDonorPolicy.LAST_VERTEX): {"H4": (2, 18, 0), "H5": (2, 2, 16)},
}


@pytest.mark.parametrize(
    "key", list(DEEP_VERDICTS), ids=lambda k: f"n{k[0][0]}-{k[2].value}"
)
def test_deep_h4_h5_verdict_counts(key):
    size, count, policy = key
    summaries, _ = run_campaign(
        (Hypothesis.H4, Hypothesis.H5), random_spec_stream(*size, 0, count),
        opts=EvalOptions(policy=policy),
    )
    got = {s.hypothesis.value: (s.holds, s.violated, s.inconclusive) for s in summaries}
    assert got == DEEP_VERDICTS[key]
