"""The public functions validate their input once; the package's internal
calls run unguarded cores on graphs the package built itself."""

from __future__ import annotations

import importlib
import io
import json
import sys

import pytest

from conftest import seeded
from rainbowmatch.cli import main
from rainbowmatch.construct import ConstructStatus, PeelStrategy, construct
from rainbowmatch.generators import instances_for, random_spec_stream
from rainbowmatch.graph import ColoredMultigraph, canonical_digest, to_canonical_json, to_dict
from rainbowmatch.harness import (
    EvalOptions,
    H1Mode,
    Hypothesis,
    InstanceRun,
    Verdict,
    _eval_instance,
    evaluate,
    minimize,
    replay,
    run_campaign,
    violation_predicate,
)
from rainbowmatch.oracle import max_rainbow, rainbow_pairs
from rainbowmatch.reduction import reduce_to_normal_form
from rainbowmatch.shifting import shift

# Counts-valid and one left vertex too many, but color 0 meets left vertex 0
# twice.
IMPROPER = ColoredMultigraph.of(
    2, 4, 3, [(0, 0, 0), (0, 1, 0), (2, 2, 0), (3, 0, 1), (1, 1, 1), (2, 2, 1)]
)
IMPROPER_MESSAGE = "invalid graph: color 0: edges share left vertex 0"

PUBLIC_ENTRIES = {
    "shift": lambda g: shift(g, 0, 3),
    "reduce_to_normal_form": reduce_to_normal_form,
    "max_rainbow": max_rainbow,
    "rainbow_pairs": rainbow_pairs,
    "construct": construct,
    **{f"evaluate-{h.value}": (lambda g, h=h: evaluate(h, g)) for h in Hypothesis},
}


@pytest.mark.parametrize("entry", PUBLIC_ENTRIES.values(), ids=PUBLIC_ENTRIES.keys())
def test_public_entry_rejects_an_improper_graph(entry):
    with pytest.raises(ValueError) as exc:
        entry(IMPROPER)
    assert str(exc.value) == IMPROPER_MESSAGE


@pytest.mark.parametrize("mode", list(H1Mode))
def test_h1_validates_before_indexing_by_vertex(mode):
    # H1 compacts the graph and indexes by vertex; an edge out of bounds
    # must be reported, not hit as an IndexError.
    g = ColoredMultigraph.of(1, 2, 2, [(5, 0, 0), (1, 1, 0)])
    with pytest.raises(ValueError) as exc:
        evaluate(Hypothesis.H1, g, EvalOptions(h1_mode=mode))
    assert str(exc.value) == "invalid graph: edge (5, 0, 0) out of bounds"


def _counting_validate(monkeypatch) -> list[ColoredMultigraph]:
    """Record the graph of every ``graph.validate`` call, however it is
    reached: through ``require_valid`` or by name in any module."""
    graph_module = importlib.import_module("rainbowmatch.graph")
    real = graph_module.validate
    calls = []

    def counting(g, require_counts=False):
        calls.append(g)
        return real(g, require_counts)

    for module in _modules():
        if getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counting)
    return calls


def _modules():
    names = ("graph", "harness", "construct", "oracle", "reduction", "shifting", "cli")
    return [importlib.import_module(f"rainbowmatch.{name}") for name in names]


@pytest.mark.parametrize(
    "hyps, spec",
    [(tuple(Hypothesis), (3, 6, 5)), ((Hypothesis.H4,), (4, 7, 6))],
    ids=["all-n3", "H4-n4"],
)
def test_instance_run_validates_its_instance_once(monkeypatch, hyps, spec):
    calls = _counting_validate(monkeypatch)
    for s in random_spec_stream(*spec, 0, 40):
        for g in instances_for(s):
            calls.clear()
            _eval_instance(s, g, hyps, EvalOptions())
            assert calls == [g], canonical_digest(g)


def test_minimize_validates_once_per_predicate_call(monkeypatch):
    # The predicate's InstanceRun is the one judge of a candidate's domain.
    pred = violation_predicate(Hypothesis.H4)
    seeds = [s for s in range(12) if pred(seeded(3, 6, 5, s))]
    assert seeds
    calls = _counting_validate(monkeypatch)
    for seed in seeds:
        asked = []

        def counted(h):
            asked.append(h)
            return pred(h)

        calls.clear()
        minimize(seeded(3, 6, 5, seed), counted)
        assert calls == asked, seed


def _counting_rainbow_checks(monkeypatch) -> list[tuple[str, bool]]:
    """Record the calling module and the answer of every
    ``graph.is_rainbow_matching`` call, in every module that binds the name."""
    real = importlib.import_module("rainbowmatch.graph").is_rainbow_matching
    calls: list[tuple[str, bool]] = []

    def counting(name):
        def is_rainbow_matching(g, m, k):
            calls.append((name, real(g, m, k)))
            return calls[-1][1]

        return is_rainbow_matching

    for module in _modules():
        if getattr(module, "is_rainbow_matching", None) is real:
            monkeypatch.setattr(module, "is_rainbow_matching", counting(module.__name__))
    return calls


def _assert_only_construct_checks(calls, matched, seed):
    # Construct's own final check sees at most the H5 witness and the match,
    # and nothing checks a matching again after it.
    assert len(calls) <= 2, seed
    assert {name for name, _ in calls} <= {"rainbowmatch.construct"}, seed
    assert matched == any(ok for _, ok in calls), seed


N4_SEEDS = range(20)


def test_evaluate_leaves_the_matching_check_to_construct(monkeypatch):
    calls = _counting_rainbow_checks(monkeypatch)
    opts = EvalOptions()
    matches = 0
    for seed in N4_SEEDS:
        g = seeded(4, 7, 6, seed)
        calls.clear()
        run = InstanceRun(g, opts)
        verdicts = [evaluate(h, g, opts, run)[0] for h in (Hypothesis.H4, Hypothesis.H5)]
        matched = run.construction.status is ConstructStatus.MATCHED
        _assert_only_construct_checks(calls, matched, seed)
        if matched:
            assert verdicts == [Verdict.HOLDS, Verdict.HOLDS], seed
        matches += matched
    assert matches > 0


def test_cli_construct_leaves_the_matching_check_to_construct(monkeypatch, capsys):
    calls = _counting_rainbow_checks(monkeypatch)
    matches = 0
    for seed in N4_SEEDS:
        monkeypatch.setattr(sys, "stdin", io.StringIO(to_canonical_json(seeded(4, 7, 6, seed))))
        calls.clear()
        code = main(["construct", "--strategy", "backtrack"])
        out = capsys.readouterr().out
        assert code in (0, 3) and len(out.splitlines()) == 1, seed
        matched = json.loads(out)["status"] == ConstructStatus.MATCHED.value
        assert matched == (code == 0), seed
        _assert_only_construct_checks(calls, matched, seed)
        matches += matched
    assert matches > 0


def test_replay_validates_each_group_once(monkeypatch):
    _, records = run_campaign(tuple(Hypothesis), random_spec_stream(3, 6, 5, 0, 40))
    lines = [json.loads(r.to_json_line()) for r in records]
    groups = {json.dumps(l["witness"]["instance"]) for l in lines if l["verdict"] == "violated"}
    calls = _counting_validate(monkeypatch)
    assert replay(lines).ok
    assert sorted(json.dumps(to_dict(g)) for g in calls) == sorted(groups)


def _pinned_search():
    return construct(seeded(4, 7, 6, 0), PeelStrategy.BACKTRACKING, budget=256)


def test_construct_validates_its_input_once(monkeypatch):
    calls = _counting_validate(monkeypatch)
    out = _pinned_search()
    assert out.attempts == 25
    assert calls == [seeded(4, 7, 6, 0)]


def test_construct_reduces_each_exact_input_once(monkeypatch):
    # The package re-exports the function construct, which shadows the
    # submodule attribute of the same name.
    module = importlib.import_module("rainbowmatch.construct")
    real = module.reduce_trusted
    inputs = []

    def recording(g, policy, max_iters):
        inputs.append((g, policy))
        return real(g, policy, max_iters)

    monkeypatch.setattr(module, "reduce_trusted", recording)
    out = _pinned_search()
    assert len(inputs) == len(set(inputs))
    _assert_pinned_outcome(out)


def _assert_pinned_outcome(out):
    # The outcome pinned in test_digest_paid_only_for_kept_failures.
    assert out.attempts == 25
    assert out.failure.to_dict() == {
        "depth": 1, "reason": "count_deficit", "digest": "506443fdad14f1b0",
    }
    assert [tuple(e) for e in out.candidate.edges] == [
        (0, 1, 0), (1, 1, 1), (2, 0, 2), (3, 2, 3),
    ]
    assert [(s.depth, s.color, s.pivot, tuple(s.edge)) for s in out.trace] == [
        (0, 0, 0, (0, 1, 0)), (1, 0, 0, (0, 1, 0)),
    ]


def test_construct_runs_no_work_nothing_observes(monkeypatch):
    # Below the top a level is not reduced on entry, and past the H5 witness
    # a peel whose head edge cannot be in the input matching is not run.
    # Without either rule the search spends its whole budget of 256 peels
    # and makes 212, 256 and 236 calls.
    module = importlib.import_module("rainbowmatch.construct")
    calls = dict.fromkeys(("reduce_trusted", "peel", "rainbow_pairs_trusted"), 0)

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    _assert_pinned_outcome(_pinned_search())
    assert calls == {"reduce_trusted": 26, "peel": 25, "rainbow_pairs_trusted": 16}


def test_instance_run_reduces_each_exact_input_once(monkeypatch):
    # One run shares one memo among the entry reduction, H3's residual and
    # the construction's levels; every module that calls reduce_trusted by
    # name is wrapped.
    names = ("rainbowmatch.reduction", "rainbowmatch.construct", "rainbowmatch.harness")
    modules = [m for m in map(importlib.import_module, names) if hasattr(m, "reduce_trusted")]
    inputs = []

    def recording(real):
        def reduce_trusted(g, policy, max_iters):
            inputs.append((g, policy))
            return real(g, policy, max_iters)

        return reduce_trusted

    for module in modules:
        monkeypatch.setattr(module, "reduce_trusted", recording(module.reduce_trusted))
    hyps = tuple(Hypothesis)
    items = [(spec, g) for spec in random_spec_stream(3, 6, 5, 0, 200) for g in instances_for(spec)]
    total = 0
    for spec, g in items:
        inputs.clear()
        _eval_instance(spec, g, hyps, EvalOptions())
        assert len(inputs) == len(set(inputs)), canonical_digest(g)
        total += len(inputs)
    assert total > len(items)
