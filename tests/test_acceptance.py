"""Acceptance gate: eight criteria, one pass/fail line each.

Each criterion is an ordinary test that fails loudly on its own; the PASS
lines are echoed in the terminal summary after the run (and inline under
``pytest -s``).
"""

from __future__ import annotations

import json
import random
import time

import pytest

from conftest import CRITERION_LINES, snapshot_shift
from rainbowmatch.construct import ConstructStatus, PeelStrategy, construct
from rainbowmatch.generators import (
    GenKind,
    GenSpec,
    enumerate_instances,
    gen_latin,
    gen_random,
    latin_spec_stream,
    random_spec_stream,
)
from rainbowmatch.graph import (
    Side,
    canonical_digest,
    is_rainbow_matching,
    to_canonical_json,
    validate,
)
from rainbowmatch.harness import (
    EvalOptions,
    Hypothesis,
    Verdict,
    evaluate,
    minimize,
    replay,
    run_campaign,
    violation_predicate,
)
from rainbowmatch.oracle import max_rainbow
from rainbowmatch.shifting import shift
from reference import degree, edges_by_color, is_normal_form, max_rainbow_naive

RANDOM_SHAPES_23 = [(2, 3, 3), (2, 4, 3), (2, 4, 4), (3, 4, 4), (3, 5, 4), (3, 6, 5)]
SHIFT_SHAPES_234 = [(2, 4, 3), (2, 5, 4), (3, 4, 4), (3, 5, 4), (4, 5, 5), (4, 6, 5)]


def _report(line: str) -> None:
    CRITERION_LINES.append(line)
    print("\n" + line)
CAMPAIGN_HYPS = [Hypothesis.H1, Hypothesis.H2, Hypothesis.H3, Hypothesis.H4, Hypothesis.H5]


def _fresh(shape, seed):
    n, left, right = shape
    return gen_random(GenSpec(GenKind.RANDOM, n, left, right, seed))


@pytest.fixture(scope="module")
def latin_outcomes():
    """Criterion 7 battery, shared with the soundness criterion."""
    results = []
    for spec in latin_spec_stream(4, 3, 0, 1000):
        g = gen_latin(spec)
        out = construct(g, PeelStrategy.BACKTRACKING)
        oracle = max_rainbow(g).max_size
        results.append((spec, g, out, oracle))
    return results


@pytest.fixture(scope="module")
def campaign_results(tmp_path_factory):
    """Criterion 6 campaigns: H1..H5 on 10^4 random n=3 instances."""
    root = tmp_path_factory.mktemp("campaigns")
    specs = list(random_spec_stream(3, 6, 5, 0, 10_000))
    out = {}
    summaries, all_records = run_campaign(tuple(CAMPAIGN_HYPS), specs)
    for h, (hyp, summary) in enumerate(zip(CAMPAIGN_HYPS, summaries)):
        records = all_records[h * len(specs):(h + 1) * len(specs)]
        path = root / f"{hyp.value.lower()}.jsonl"
        path.write_text("".join(r.to_json_line() + "\n" for r in records))
        out[hyp] = (summary, records, path)
    return out


def test_criterion_1_oracle_cross_validation():
    t0 = time.perf_counter()
    mismatches = 0
    total = 0
    for g in enumerate_instances(GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)):
        total += 1
        if max_rainbow(g).max_size != max_rainbow_naive(g).max_size:
            mismatches += 1
    for i in range(10_000):
        g = _fresh(RANDOM_SHAPES_23[i % len(RANDOM_SHAPES_23)], 50_000 + i)
        total += 1
        if max_rainbow(g).max_size != max_rainbow_naive(g).max_size:
            mismatches += 1
    dt = time.perf_counter() - t0
    assert mismatches == 0
    assert dt < 60.0
    _report(f"PASS criterion 1: oracle cross-validation on {total} instances, "
          f"0 mismatches, {dt:.1f}s")


def test_criterion_2_conjecture_base_case():
    (summary,), records = run_campaign(
        (Hypothesis.CONJ,), [GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)]
    )
    assert summary.trials == 36
    assert summary.holds == 36
    assert summary.violated == 0
    _report("PASS criterion 2: CONJ holds on all 36 enumerated n=2 instances")


def test_criterion_3_shift_structural_invariants():
    rng = random.Random(20260823)
    t0 = time.perf_counter()
    bad = 0
    for i in range(100_000):
        g = _fresh(SHIFT_SHAPES_234[i % len(SHIFT_SHAPES_234)], 100_000 + i)
        pivot = rng.randrange(g.left_size)
        donor = rng.randrange(g.left_size - 1)
        if donor >= pivot:
            donor += 1
        before = {c: len(es) for c, es in edges_by_color(g).items()}
        outcome = shift(g, pivot, donor)
        h = outcome.graph
        ok = validate(h).ok
        ok = ok and before == {c: len(es) for c, es in edges_by_color(h).items()}
        ok = ok and degree(h, Side.LEFT, pivot) == degree(g, Side.LEFT, pivot) + outcome.moves
        ok = ok and degree(h, Side.LEFT, donor) == degree(g, Side.LEFT, donor) - outcome.moves
        ok = ok and all(
            degree(h, Side.RIGHT, v) == degree(g, Side.RIGHT, v)
            for v in range(g.right_size)
        )
        if not ok:
            bad += 1
    dt = time.perf_counter() - t0
    assert bad == 0
    _report(f"PASS criterion 3: 100000 shift trials preserve properness, "
          f"counts and the degree law, {dt:.1f}s")


def test_criterion_4_sequential_equals_snapshot():
    mismatches = 0
    for i in range(10_000):
        g = _fresh(SHIFT_SHAPES_234[i % len(SHIFT_SHAPES_234)], 300_000 + i)
        rng = random.Random(i)
        pivot = rng.randrange(g.left_size)
        donor = rng.randrange(g.left_size - 1)
        if donor >= pivot:
            donor += 1
        got = sorted(shift(g, pivot, donor).graph.edges)
        want = sorted(snapshot_shift(g, pivot, donor))
        if got != want:
            mismatches += 1
    assert mismatches == 0
    _report("PASS criterion 4: sequential and snapshot shift semantics agree "
          "on 10000 trials")


def test_criterion_5_constructor_soundness(latin_outcomes):
    matched = 0
    violations = 0
    for _, g, out, _ in latin_outcomes:
        if out.status is ConstructStatus.MATCHED:
            matched += 1
            if not is_rainbow_matching(g, out.matching, g.n):
                violations += 1
    for seed in range(500):
        g = _fresh((3, 6, 5), 700_000 + seed)
        out = construct(g, PeelStrategy.BACKTRACKING)
        if out.status is ConstructStatus.MATCHED:
            matched += 1
            if not is_rainbow_matching(g, out.matching, g.n):
                violations += 1
    assert violations == 0
    _report(f"PASS criterion 5: {matched} Matched outcomes re-verified against "
          f"their originals, 0 violations")


def test_criterion_6_hypothesis_campaigns(campaign_results):
    counts = {}
    for hyp in CAMPAIGN_HYPS:
        summary, records, path = campaign_results[hyp]
        assert summary.trials == 10_000
        assert len(records) == 10_000
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(loaded) == 10_000
        report = replay(loaded)
        assert report.ok, f"{hyp.value}: {len(report.mismatches)} non-reproducing records"
        assert report.reproduced == report.violated == summary.violated
        counts[hyp.value] = (summary.holds, summary.violated, summary.inconclusive)
    stated = ", ".join(
        f"{h} {v[1]} violated ({v[0]} holds, {v[2]} inconclusive)"
        for h, v in counts.items()
    )
    _report(f"PASS criterion 6: campaigns complete and replay reproduces every "
          f"Violated verdict; findings: {stated}")


def test_criterion_7_latin_pipeline(latin_outcomes, tmp_path):
    for _, g, _, _ in latin_outcomes[:50]:
        assert validate(g, require_counts=True).ok
        assert is_normal_form(g)
    agree = sum(
        1
        for _, g, out, oracle in latin_outcomes
        if (out.status is ConstructStatus.MATCHED) == (oracle >= 3)
    )
    rate = agree / len(latin_outcomes)
    if rate >= 0.99:
        _report(f"PASS criterion 7: construct and oracle agree on "
              f"{agree}/{len(latin_outcomes)} Latin instances ({rate:.1%})")
        return
    # fallback: every disagreement must be persisted as a minimized finding
    findings = tmp_path / "latin_findings.jsonl"
    lines = []
    for spec, g, out, oracle in latin_outcomes:
        if (out.status is ConstructStatus.MATCHED) == (oracle >= 3):
            continue
        for hyp in (Hypothesis.H4, Hypothesis.H5):
            verdict, witness = evaluate(hyp, g)
            if verdict is not Verdict.VIOLATED:
                continue
            small = minimize(g, violation_predicate(hyp))
            lines.append(json.dumps({
                "hyp": hyp.value,
                "spec": spec.to_dict(),
                "digest": canonical_digest(g),
                "minimized": json.loads(to_canonical_json(small)),
            }))
            break
        else:
            pytest.fail(f"disagreement on seed {spec.seed} produced no finding")
    findings.write_text("\n".join(lines) + "\n")
    _report(f"PASS criterion 7: {len(lines)} disagreements persisted as "
          f"minimized H4/H5 findings ({rate:.1%} agreement)")


def test_criterion_8_determinism(campaign_results):
    # instance generation is byte-stable
    batch1 = [to_canonical_json(_fresh((3, 6, 5), s)) for s in range(200)]
    batch2 = [to_canonical_json(_fresh((3, 6, 5), s)) for s in range(200)]
    assert batch1 == batch2

    # re-running a campaign slice reproduces the stored records byte-for-byte
    # once timing fields are dropped
    def strip(line: str) -> dict:
        d = json.loads(line)
        d.pop("ms", None)
        return d

    _, records, path = campaign_results[Hypothesis.H3]
    saved = [strip(line) for line in path.read_text().splitlines()[:500]]
    _, again = run_campaign((Hypothesis.H3,), random_spec_stream(3, 6, 5, 0, 500))
    fresh = [strip(r.to_json_line()) for r in again]
    assert fresh == saved

    (summary1,), conj1 = run_campaign((Hypothesis.CONJ,), [GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)])
    (summary2,), conj2 = run_campaign((Hypothesis.CONJ,), [GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)])
    assert [strip(r.to_json_line()) for r in conj1] == [strip(r.to_json_line()) for r in conj2]
    _report("PASS criterion 8: repeated runs are byte-identical modulo timings")
