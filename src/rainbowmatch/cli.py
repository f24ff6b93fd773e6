"""Command line interface.

Subcommands compose over stdin/stdout: instances travel as one canonical
JSON object per line, so ``rainbowmatch gen ... | rainbowmatch reduce |
rainbowmatch solve`` works as a pipeline.

Exit codes:
    0   success (campaign findings are reported, not signalled)
    2   invalid input (malformed JSON, failed validation, bad arguments)
    3   stalled reduction or failed construction
    4   non-reproducing record (replay)
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager, nullcontext
from itertools import islice
from typing import Callable, Iterable

from .construct import ConstructStatus, PeelStrategy, construct
from .generators import GenKind, GenSpec, instances_for, latin_spec_stream, random_spec_stream
from .graph import (
    ColoredMultigraph,
    Side,
    canonical_digest,
    canonical_line,
    compact_json,
    edge_lists,
    json_lines,
    read_instances,
    to_canonical_json,
    to_dict,
)
from .graph import validate as validate_graph
from .harness import (
    EvalOptions,
    H1Mode,
    Hypothesis,
    minimize,
    replay,
    run_campaign,
    violation_predicate,
)
from .oracle import max_rainbow
from .reduction import DEFAULT_POLICY, PivotDonorPolicy, ReductionStatus, reduce_to_normal_form
from .shifting import shift

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FINDINGS = 3
EXIT_MISMATCH = 4


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``; anything else is
    a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


@contextmanager
def _opened(path: str | None, mode: str):
    """The file at ``path``, or stdin/stdout (by ``mode``) for None or '-'."""
    if path in (None, "-"):
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open(path, mode, encoding="utf-8") as f:
            yield f


def _write_lines(lines: Iterable[str], path: str | None) -> None:
    with _opened(path, "w") as out:
        out.writelines(line + "\n" for line in lines)


def _same_file(a: str | None, b: str | None) -> bool:
    """Whether paths ``a`` and ``b`` name one file; None and '-' name a stream."""
    if a in (None, "-") or b in (None, "-"):
        return False
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _each_instance(args, render: Callable[[ColoredMultigraph], tuple]) -> int:
    """Answer each input instance as soon as it is read: ``render(g)`` gives
    its output line, trace entries and exit code.  Trace entries go to
    ``--trace`` as ``{"index", "digest", **entry}``, ``index`` being the
    0-based input position.  Returns the largest exit code."""
    trace_path = getattr(args, "trace", None)
    if _same_file(args.out, trace_path):
        raise ValueError(f"--out and --trace both name {trace_path}")
    with _opened(args.inp, "r") as src:
        # The input is still being read while the outputs are written.
        for path in (args.out, trace_path):
            if _same_file(args.inp, path):
                raise ValueError(f"output {path} is the input file")
        with _opened(args.out, "w") as out, (
            nullcontext() if trace_path is None else open(trace_path, "w", encoding="utf-8")
        ) as trace:
            worst = EXIT_OK
            for index, g in enumerate(read_instances(src)):
                line, entries, code = render(g)
                out.write(line + "\n")
                if trace is not None:
                    head = {"index": index, "digest": canonical_digest(g)}
                    trace.writelines(compact_json({**head, **e}) + "\n" for e in entries)
                worst = max(worst, code)
    return worst


def _specs_from_args(args) -> list[GenSpec]:
    kind = GenKind(args.kind)
    count = 1 if args.count is None else args.count
    unread = [] if kind is GenKind.LATIN else [("--order", args.order), ("--drop", args.drop)]
    if kind is GenKind.EXHAUSTIVE:
        unread.append(("--seed", args.seed))
    for flag, value in unread:
        if value is not None:
            raise ValueError(f"--kind {kind.value} takes no {flag}")
    if kind is GenKind.RANDOM:
        if args.n is None or args.left is None or args.right is None:
            raise ValueError("--kind random needs --n, --left and --right")
        return list(random_spec_stream(args.n, args.left, args.right, args.seed or 0, count))
    if kind is GenKind.LATIN:
        order = args.order if args.order is not None else args.left
        if order is None:
            raise ValueError("--kind latin needs --order")
        for flag, value, want in (("--n", args.n, order - 1), ("--left", args.left, order),
                                  ("--right", args.right, order)):
            if value is not None and value != want:
                raise ValueError(f"--kind latin of order {order} needs {flag} {want}, got {value}")
        return list(latin_spec_stream(order, args.drop, args.seed or 0, count))
    if args.n is None:
        raise ValueError("--kind enumerate needs --n")
    left = args.left if args.left is not None else args.n + 1
    right = args.right if args.right is not None else args.n + 1
    return [GenSpec(GenKind.EXHAUSTIVE, args.n, left, right)]


def _eval_options(args) -> EvalOptions:
    return EvalOptions(args.h1_mode, args.policy, args.max_iters)


def _cmd_gen(args) -> int:
    # Random and latin specs yield one instance each, so the cap only ever
    # shortens an enumeration.  Generated edges are already canonical.
    count = 1 if args.count is None else args.count
    graphs = (g for spec in _specs_from_args(args) for g in instances_for(spec))
    _write_lines(map(canonical_line, islice(graphs, count)), args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    def render(g):
        report = validate_graph(g, require_counts=not args.no_counts)
        if args.format == "json":
            line = compact_json({
                "digest": canonical_digest(g),
                "ok": report.ok,
                "violations": [{"rule": v.rule, "detail": v.detail} for v in report.violations],
            })
        else:
            status = "ok" if report.ok else "; ".join(v.detail for v in report.violations)
            line = f"{canonical_digest(g)} {status}"
        return line, (), EXIT_OK if report.ok else EXIT_INVALID

    return _each_instance(args, render)


def _cmd_solve(args) -> int:
    def render(g):
        result = max_rainbow(g, args.target)
        witness = edge_lists(result.witness.edges)
        if args.target is not None:
            found = result.max_size == args.target
            payload = {
                "digest": canonical_digest(g),
                "target": args.target,
                "found": found,
                "witness": witness if found else None,
            }
            text = f"{payload['digest']} target={args.target} found={found}"
        else:
            payload = {
                "digest": canonical_digest(g),
                "max": result.max_size,
                "witness": witness,
                "nodes": result.nodes_explored,
            }
            text = f"{payload['digest']} max={result.max_size}"
        return compact_json(payload) if args.format == "json" else text, (), EXIT_OK

    return _each_instance(args, render)


def _cmd_shift(args) -> int:
    side = Side(args.side)

    def render(g):
        outcome = shift(g, args.pivot, args.donor, side)
        rewrites = [r.to_dict() for r in outcome.rewrites]
        if args.emit == "graph":
            line = to_canonical_json(outcome.graph)
        else:
            line = compact_json({
                "digest_before": canonical_digest(g),
                "digest_after": canonical_digest(outcome.graph),
                "side": side.value,
                "pivot": args.pivot,
                "donor": args.donor,
                "moves": outcome.moves,
                "swaps": outcome.swaps,
                "rewrites": rewrites,
                "graph": to_dict(outcome.graph),
            })
        return line, rewrites, EXIT_OK

    return _each_instance(args, render)


def _cmd_reduce(args) -> int:
    def render(g):
        red = reduce_to_normal_form(g, PivotDonorPolicy(args.policy), args.max_iters)
        steps = [s.to_dict() for s in red.trace]
        if args.emit == "graph":
            line = to_canonical_json(red.graph)
        else:
            line = compact_json({
                "digest_before": canonical_digest(g),
                "status": red.status.value,
                "iterations": red.iterations,
                "graph": to_dict(red.graph),
                "left_map": list(red.left_map),
                "right_map": list(red.right_map),
                "trace": steps,
            })
        normal = red.status is ReductionStatus.NORMALIZED
        return line, steps, EXIT_OK if normal else EXIT_FINDINGS

    return _each_instance(args, render)


def _cmd_construct(args) -> int:
    def render(g):
        outcome = construct(
            g,
            PeelStrategy(args.strategy),
            policy=PivotDonorPolicy(args.policy),
            max_iters=args.max_iters,
        )
        matched = outcome.status is ConstructStatus.MATCHED
        payload = {"digest": canonical_digest(g), **outcome.to_dict()}
        if args.format == "json":
            line = compact_json(payload)
        else:
            detail = (f"matching={payload['matching']}" if matched
                      else f"failure={compact_json(payload['failure'])}")
            line = f"{payload['digest']} {outcome.status.value} {detail}"
        return line, (), EXIT_OK if matched else EXIT_FINDINGS

    return _each_instance(args, render)


def _cmd_check(args) -> int:
    if args.kind == GenKind.EXHAUSTIVE.value and args.count is not None:
        raise ValueError("check --kind enumerate takes no --count: cap it with --budget")
    hyps = tuple(Hypothesis(h) for h in args.hyp) if args.hyp else tuple(Hypothesis)
    for i, h in enumerate(hyps):
        if h in hyps[:i]:
            raise ValueError(f"--hyp {h.value} given more than once")
    if _same_file(args.records, args.out):
        raise ValueError(f"--records and --out both name {args.out}")
    summaries, records = run_campaign(
        hyps, _specs_from_args(args), budget=args.budget, opts=_eval_options(args),
        workers=args.workers,
    )
    lines = []
    for summary in summaries:
        if args.format == "json":
            lines.append(compact_json(summary.to_dict()))
        else:
            extra = " truncated" if summary.truncated else ""
            lines.append(
                f"{summary.hypothesis.value}: trials={summary.trials} holds={summary.holds} "
                f"violated={summary.violated} inconclusive={summary.inconclusive}{extra}"
            )
    if args.records is not None:
        _write_lines((r.to_json_line() for r in records), args.records)
    _write_lines(lines, args.out)
    # violated verdicts are findings, not failures: the campaign completed
    return EXIT_OK


def _cmd_minimize(args) -> int:
    pred = violation_predicate(Hypothesis(args.hyp), _eval_options(args))
    return _each_instance(args, lambda g: (to_canonical_json(minimize(g, pred)), (), EXIT_OK))


def _cmd_replay(args) -> int:
    # The report would overwrite the records it is read from.
    if _same_file(args.inp, args.out):
        raise ValueError(f"output {args.out} is the input file")
    with _opened(args.inp, "r") as src:
        report = replay(json_lines(src))
    payload = {
        "total": report.total,
        "violated": report.violated,
        "reproduced": report.reproduced,
        "mismatches": list(report.mismatches),
    }
    if args.format == "json":
        line = compact_json(payload)
    else:
        line = (
            f"records={report.total} violated={report.violated} "
            f"reproduced={report.reproduced} mismatches={len(report.mismatches)}"
        )
    _write_lines([line], args.out)
    return EXIT_OK if report.ok else EXIT_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built on first use: parsing fills a
    fresh namespace and leaves the parser as it was, so every ``main`` call
    reuses it."""
    parser = argparse.ArgumentParser(
        prog="rainbowmatch",
        description="Shifting, normal-form reduction and rainbow matching experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--out", default=None, metavar="PATH",
                           help="output path, '-' or omitted for stdout")
    io_flags = argparse.ArgumentParser(add_help=False, parents=[out_flags])
    io_flags.add_argument("--in", dest="inp", default=None, metavar="PATH",
                          help="input path, '-' or omitted for stdin")

    fmt_flags = argparse.ArgumentParser(add_help=False)
    fmt_flags.add_argument("--format", choices=["json", "summary"], default="json")

    gen_flags = argparse.ArgumentParser(add_help=False)
    gen_flags.add_argument("--kind", choices=[k.value for k in GenKind], required=True)
    gen_flags.add_argument("--n", type=int, default=None, help="number of colors")
    gen_flags.add_argument("--left", type=int, default=None)
    gen_flags.add_argument("--right", type=int, default=None)
    gen_flags.add_argument("--order", type=int, default=None,
                           help="latin square order (latin kind)")
    gen_flags.add_argument("--drop", type=int, default=None,
                           help="latin symbol to drop (default order-1)")
    gen_flags.add_argument("--seed", type=int, default=None, help="first seed (default 0)")
    gen_flags.add_argument("--count", type=_non_negative, default=None,
                           help="instances to generate (default 1); gen also caps an "
                                "enumeration with it, check refuses it there: use --budget")

    reduction_flags = argparse.ArgumentParser(add_help=False)
    reduction_flags.add_argument("--policy", default=DEFAULT_POLICY.value,
                                 choices=[pol.value for pol in PivotDonorPolicy])
    reduction_flags.add_argument("--max-iters", type=_non_negative, default=None,
                                 help="cap on the shifts of each reduction")

    hyp_flags = argparse.ArgumentParser(add_help=False, parents=[reduction_flags])
    hyp_flags.add_argument("--h1-mode", choices=[m.value for m in H1Mode],
                           default=EvalOptions().h1_mode.value)

    p = sub.add_parser("gen", parents=[out_flags, gen_flags],
                       help="generate instances as canonical JSON lines")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", parents=[io_flags, fmt_flags],
                       help="check properness and per-color counts")
    p.add_argument("--no-counts", action="store_true",
                   help="skip the n+1 edges per color requirement")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", parents=[io_flags, fmt_flags],
                       help="exact maximum rainbow matching")
    p.add_argument("--target", type=_non_negative, default=None,
                   help="decide existence at this size instead of maximizing")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("shift", parents=[io_flags],
                       help="apply one shift at a pivot/donor pair")
    p.add_argument("--pivot", type=int, required=True)
    p.add_argument("--donor", type=int, required=True)
    p.add_argument("--side", choices=[s.value for s in Side], default="left")
    p.add_argument("--emit", choices=["graph", "record"], default="graph")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write per-color rewrites as JSON lines here")
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("reduce", parents=[io_flags, reduction_flags],
                       help="reduce to normal form")
    p.add_argument("--emit", choices=["graph", "record"], default="graph")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write one JSON line per shift step here")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("construct", parents=[io_flags, fmt_flags, reduction_flags],
                       help="inductive rainbow matching construction")
    p.add_argument("--strategy", choices=[s.value for s in PeelStrategy],
                   default=PeelStrategy.FIRST_FEASIBLE.value)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", parents=[out_flags, fmt_flags, gen_flags, hyp_flags],
                       help="run hypothesis campaigns over generated instances")
    p.add_argument("--hyp", action="append", default=None, type=str.upper,
                   choices=[h.value for h in Hypothesis],
                   help="hypothesis to test; repeat for several (default: all)")
    p.add_argument("--budget", type=_non_negative, default=None, help="trial cap")
    p.add_argument("--workers", type=_positive, default=1)
    p.add_argument("--records", default=None, metavar="PATH",
                   help="write per-trial JSONL records here")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimize", parents=[io_flags, hyp_flags],
                       help="shrink a violating instance, keeping n + 1 edges per color")
    p.add_argument("--hyp", required=True, type=str.upper,
                   choices=[h.value for h in Hypothesis])
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("replay", parents=[io_flags, fmt_flags],
                       help="re-verify violated records from a campaign file")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
