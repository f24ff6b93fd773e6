#!/usr/bin/env python3
"""Run the full experiment battery and write results to an output directory.

Four phases, each skippable via --phase:

    conj    exhaustive n=2 enumeration, conjecture check on every instance;
            the enumeration is one spec, so one process runs it
    random  H1..H5 and CONJ over seeded random oversized instances, one pass
    latin   H4 over the Latin-square stream: construct vs. oracle agreement
    shrink  greedy minimization of one finding per violated hypothesis

Outputs under --out-dir:

    <hyp>.jsonl       one campaign record per trial (replayable witnesses)
    latin_h4.jsonl    one H4 record per Latin-square trial (replayable)
    summary.json      per-phase counts and wall times
    findings.jsonl    minimized counterexamples (shrink phase)

Every phase is deterministic given --seed; re-running with the same
arguments reproduces the record files byte for byte apart from the "ms"
timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rainbowmatch.cli import _non_negative, _positive, _write_lines
from rainbowmatch.generators import (
    GenKind,
    GenSpec,
    gen_random,
    latin_spec_stream,
    random_spec_stream,
)
from rainbowmatch.graph import ColoredMultigraph, compact_json, to_dict
from rainbowmatch.harness import (
    EvalOptions,
    Hypothesis,
    InstanceRun,
    Verdict,
    evaluate,
    minimize,
    run_campaign,
    violation_predicate,
)

PHASES = ("conj", "random", "latin", "shrink")
RANDOM_HYPS = (
    Hypothesis.H1,
    Hypothesis.H2,
    Hypothesis.H3,
    Hypothesis.H4,
    Hypothesis.H5,
    Hypothesis.CONJ,
)


def phase_conj(out_dir: Path) -> dict:
    spec = GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)
    (summary,), records = run_campaign((Hypothesis.CONJ,), [spec])
    _write_lines((r.to_json_line() for r in records), str(out_dir / "conj_exhaustive.jsonl"))
    d = summary.to_dict()
    print(f"[conj] {d['trials']} instances enumerated, "
          f"{d['holds']} hold, {d['violated']} violated")
    return d


def phase_random(out_dir: Path, trials: int, seed: int, workers: int) -> dict:
    results = {}
    specs = random_spec_stream(3, 6, 5, seed, trials)
    summaries, records = run_campaign(RANDOM_HYPS, specs, workers=workers)
    for h, (hyp, summary) in enumerate(zip(RANDOM_HYPS, summaries)):
        column = records[h * summary.trials:(h + 1) * summary.trials]
        path = out_dir / f"{hyp.value.lower()}.jsonl"
        _write_lines((r.to_json_line() for r in column), str(path))
        d = summary.to_dict()
        results[hyp.value] = d
        print(f"[random] {hyp.value}: {d['holds']} hold, "
              f"{d['violated']} violated, {d['inconclusive']} inconclusive "
              f"({d['ms']:.0f} ms)")
    return results


def phase_latin(out_dir: Path, trials: int, seed: int) -> dict:
    """H4 on the Latin stream: construction and oracle agree unless H4 is
    violated, and a held H4 is a matched construction."""
    specs = latin_spec_stream(4, 3, seed, trials)
    (summary,), records = run_campaign((Hypothesis.H4,), specs)
    _write_lines((r.to_json_line() for r in records), str(out_dir / "latin_h4.jsonl"))
    d = summary.to_dict()
    agree = d["trials"] - d["violated"]
    print(f"[latin] {agree}/{d['trials']} construct/oracle agreement, "
          f"{d['holds']} matched ({d['ms']:.0f} ms)")
    return {"trials": d["trials"], "agree": agree, "matched": d["holds"], "ms": d["ms"]}


def phase_shrink(out_dir: Path, trials: int, seed: int) -> dict:
    """Minimize the first violated instance found for each hypothesis.

    One pass over the seed stream: each instance is generated once and the
    hypotheses not yet violated share one run of it."""
    opts = EvalOptions()
    found: dict[Hypothesis, tuple[GenSpec, ColoredMultigraph]] = {}
    for spec in random_spec_stream(3, 6, 5, seed, trials):
        pending = [hyp for hyp in RANDOM_HYPS if hyp not in found]
        if not pending:
            break
        g = gen_random(spec)
        run = InstanceRun(g, opts)
        for hyp in pending:
            if evaluate(hyp, g, opts, run)[0] is Verdict.VIOLATED:
                found[hyp] = (spec, g)
    lines = []
    for hyp in RANDOM_HYPS:
        if hyp not in found:
            print(f"[shrink] {hyp.value}: no violation in {trials} trials")
            continue
        spec, g = found[hyp]
        small = minimize(g, violation_predicate(hyp, opts))
        lines.append(compact_json({
            "hyp": hyp.value,
            "spec": spec.to_dict(),
            "original": {"left": g.left_size, "right": g.right_size,
                         "edges": len(g.edges)},
            "minimized": to_dict(small),
        }))
        print(f"[shrink] {hyp.value}: seed {spec.seed} "
              f"{g.left_size}x{g.right_size}/{len(g.edges)}e -> "
              f"{small.left_size}x{small.right_size}/{len(small.edges)}e")
    path = out_dir / "findings.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return {"findings": len(lines)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    ap.add_argument("--trials", type=_non_negative, default=10_000,
                    help="random-campaign size (default 10000)")
    ap.add_argument("--latin-trials", type=_non_negative, default=1000)
    ap.add_argument("--seed", type=_non_negative, default=0)
    ap.add_argument("--workers", type=_positive, default=1,
                    help="processes for the random phase")
    ap.add_argument("--phase", action="append", choices=PHASES,
                    help="run only these phases (repeatable; default all)")
    args = ap.parse_args(argv)

    phases = tuple(args.phase) if args.phase else PHASES
    args.out_dir.mkdir(parents=True, exist_ok=True)

    summary: dict = {"seed": args.seed, "trials": args.trials}
    if "conj" in phases:
        summary["conj"] = phase_conj(args.out_dir)
    if "random" in phases:
        summary["random"] = phase_random(args.out_dir, args.trials, args.seed, args.workers)
    if "latin" in phases:
        summary["latin"] = phase_latin(args.out_dir, args.latin_trials, args.seed)
    if "shrink" in phases:
        summary["shrink"] = phase_shrink(args.out_dir, args.trials, args.seed)

    (args.out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    print(f"summary written to {args.out_dir / 'summary.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
