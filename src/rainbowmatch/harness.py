"""Campaign runner for the procedure's unproven hypotheses.

Each hypothesis is a measurable predicate evaluated per instance:

* H1: shifting preserves existence of a size-n rainbow matching, in both
  directions (neither destroys nor creates one).
* H2: reduction terminates in normal form.
* H3: after peeling a color and its pivot, re-normalization empties exactly
  the peeled right vertex.
* H4: the inductive construction succeeds whenever the oracle finds a
  size-n matching.
* H5: a fully assembled candidate matching exists in the original graph.
* CONJ: every valid instance has a rainbow matching of size n.

A Violated verdict is a *finding*, not an error: campaigns exit cleanly and
report counts.  Only a non-reproducing record is a failure.  A Matched
construction is never re-checked here: ``construct_trusted`` verifies its
matching before it can return one.
"""

from __future__ import annotations

import time
from enum import Enum
from functools import cached_property, partial
from itertools import accumulate, chain, islice
from typing import Callable, Iterable, NamedTuple

from .construct import (
    ConstructionOutcome,
    ConstructStatus,
    FailReason,
    PeelStrategy,
    construct_trusted,
    peel,
    peels,
)
from .generators import GenSpec, instances_for
from .graph import (
    ColoredMultigraph,
    Side,
    canonical_digest,
    compact_json,
    edge_lists,
    from_dict,
    require_valid,
    to_dict,
)
from .oracle import max_rainbow_edges, max_rainbow_trusted
from .reduction import (
    DEFAULT_POLICY,
    PivotDonorPolicy,
    ReductionOutcome,
    ReductionStatus,
    compact_isolated,
    compact_lists,
    reduce_lists,
    reduce_trusted,
)
from .shifting import shift_arrays


class Hypothesis(str, Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    H4 = "H4"
    H5 = "H5"
    CONJ = "CONJ"


class Verdict(str, Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


class H1Mode(str, Enum):
    # policy: test only the (side, pivot, donor) of the reduction's first
    # step; all: test every ordered pair of left vertices with edges,
    # whether or not the pivot is missing a color.
    POLICY = "policy"
    ALL = "all"


class _EvalOptionsFields(NamedTuple):
    h1_mode: H1Mode
    policy: PivotDonorPolicy
    max_iters: int | None


class EvalOptions(_EvalOptionsFields):
    """Checked where made, and again where a pool worker unpickles them."""

    __slots__ = ()

    def __new__(cls, h1_mode: H1Mode | str = H1Mode.POLICY,
                policy: PivotDonorPolicy | str = DEFAULT_POLICY,
                max_iters: int | None = None) -> "EvalOptions":
        self = super().__new__(cls, H1Mode(h1_mode), PivotDonorPolicy(policy), max_iters)
        if not (max_iters is None or type(max_iters) is int):
            raise ValueError("options max_iters must be integers")
        if max_iters is not None and max_iters < 0:
            raise ValueError("options max_iters must be non-negative")
        return self

    def to_dict(self) -> dict:
        return {
            "h1_mode": self.h1_mode.value,
            "policy": self.policy.value,
            "max_iters": self.max_iters,
        }

    @staticmethod
    def from_dict(d: dict) -> "EvalOptions":
        """Parse the dict form; raises ValueError on malformed input."""
        if not isinstance(d, dict):
            raise ValueError(f"options must be a JSON object, got {type(d).__name__}")
        return EvalOptions(**{k: d[k] for k in EvalOptions._fields if k in d})


class CampaignRecord(NamedTuple):
    hypothesis: Hypothesis
    spec: GenSpec
    instance_digest: str
    verdict: Verdict
    witness: dict | None
    wall_time_ms: float

    def to_json_line(self) -> str:
        return compact_json({
            "hyp": self.hypothesis.value,
            "digest": self.instance_digest,
            "verdict": self.verdict.value,
            "spec": self.spec.to_dict(),
            "witness": self.witness,
            "ms": self.wall_time_ms,
        })


class CampaignSummary(NamedTuple):
    hypothesis: Hypothesis
    trials: int
    holds: int
    violated: int
    inconclusive: int
    truncated: bool
    wall_time_ms: float  # summed over this hypothesis's records

    def to_dict(self) -> dict:
        return {
            "hyp": self.hypothesis.value,
            "trials": self.trials,
            "holds": self.holds,
            "violated": self.violated,
            "inconclusive": self.inconclusive,
            "truncated": self.truncated,
            "ms": self.wall_time_ms,
        }


class ReplayReport(NamedTuple):
    total: int
    violated: int
    reproduced: int
    mismatches: tuple[int, ...]  # indices of non-reproducing records

    @property
    def ok(self) -> bool:
        return not self.mismatches


class InstanceRun:
    """The shared pipeline of one instance under one set of options.

    Making a run is the harness's one guard: it raises ValueError unless the
    instance is proper with n >= 1 colors of n + 1 edges each, the domain of
    every hypothesis, and every stage behind it runs a trusted core.  The
    reduction, the backtracking construction and the exact oracle are each
    computed at most once, on first use, so the evaluators are cheap
    projections of one run: H1, H2, H3 and the construction share the one
    entry reduction, and H3 and the construction share the reduction of its
    first peel's residual.  The entry and each residual are reduced on
    lists, to outcomes that hold no graph, under ``opts.policy`` and
    ``opts.max_iters``.  A run lives exactly as long as its instance is
    being evaluated; nothing is cached beyond it.
    """

    def __init__(self, g: ColoredMultigraph, opts: EvalOptions):
        require_valid(g, require_counts=True)
        if g.n < 1:
            raise ValueError("the hypotheses need at least one color")
        self.g = g
        self.opts = opts

    @cached_property
    def reduction(self) -> ReductionOutcome:
        return reduce_trusted(self.g, self.opts.policy, self.opts.max_iters)

    @cached_property
    def first_peel(self) -> tuple[tuple[int, int, int], ReductionOutcome]:
        """The construction's first peel of the normalized entry reduction,
        as ``(color, pivot, peeled right vertex)``, and its residual's
        reduction: H3 tests it and the construction starts from it."""
        level = self.reduction.level
        color, pivot, i = peels(level)[0]
        opts = self.opts
        reduced = reduce_lists(*peel(level, pivot, color), self.g.n - 1, opts.policy, opts.max_iters)
        return (color, pivot, level[1][i]), reduced

    @cached_property
    def construction(self) -> ConstructionOutcome:
        g, opts = self.g, self.opts
        entry = first = None
        if g.n > 2:
            entry = self.reduction
            if entry.status is ReductionStatus.NORMALIZED:
                first = self.first_peel[1]
        return construct_trusted(
            g, PeelStrategy.BACKTRACKING, entry, first, opts.policy, opts.max_iters
        )

    @cached_property
    def max_size(self) -> int:
        return max_rainbow_trusted(self.g).max_size

    @cached_property
    def instance(self) -> dict:
        """The instance's dict, made once and shared by every witness."""
        return to_dict(self.g)

    def witness(self, **extra) -> dict:
        w: dict = {"instance": self.instance}
        w.update(extra)
        w["opts"] = self.opts.to_dict()
        return w


def _eval_conj(run: InstanceRun) -> tuple[Verdict, dict | None]:
    if run.max_size >= run.g.n:
        return Verdict.HOLDS, None
    return Verdict.VIOLATED, run.witness(max=run.max_size)


def _eval_h1(run: InstanceRun) -> tuple[Verdict, dict | None]:
    g, opts = run.g, run.opts
    # g's compaction, as lists: the same maximum at any vertex labels.
    (us, vs, cs), lmap, _ = compact_lists(g)
    if opts.h1_mode is H1Mode.POLICY:
        # The reduction's first step, taken on g's compaction; there is none
        # when g is already normal or the cap allows no step.
        if not run.reduction.trace:
            return Verdict.INCONCLUSIVE, None
        first = run.reduction.trace[0]
        pairs = [(first.side, first.pivot, first.donor)]
    else:
        # A shift onto an isolated pivot only relabels its donor, which
        # keeps the maximum, so only left vertices with edges are paired.
        carriers = range(len(lmap))
        pairs = [
            (Side.LEFT, pivot, donor)
            for pivot in carriers
            for donor in carriers
            if donor != pivot
        ]

    before = run.max_size
    for side, pivot, donor in pairs:
        shifted_us, shifted_vs = us[:], vs[:]
        if side is Side.LEFT:
            shift_arrays(shifted_us, shifted_vs, cs, pivot, donor)
        else:
            shift_arrays(shifted_vs, shifted_us, cs, pivot, donor)
        # No matching has more edges than the n colors, so the target n
        # ends the search early and still reads the maximum.
        after = len(max_rainbow_edges(list(zip(shifted_us, shifted_vs, cs)), g.n)[0])
        if (before >= g.n) != (after >= g.n):
            direction = "forward" if before >= g.n else "reverse"
            if opts.h1_mode is H1Mode.ALL:
                # Named by g's own labels.
                pivot, donor = lmap[pivot], lmap[donor]
            return Verdict.VIOLATED, run.witness(
                side=side.value,
                pivot=pivot,
                donor=donor,
                direction=direction,
                max_before=before,
                max_after=after,
            )
    return Verdict.HOLDS, None


def _eval_h2(run: InstanceRun) -> tuple[Verdict, dict | None]:
    red = run.reduction
    if red.status is ReductionStatus.NORMALIZED:
        return Verdict.HOLDS, None
    detail = run.witness(status=red.status.value, iterations=red.iterations)
    if red.status is ReductionStatus.STALLED:
        return Verdict.VIOLATED, detail
    return Verdict.INCONCLUSIVE, detail


def _eval_h3(run: InstanceRun) -> tuple[Verdict, dict | None]:
    red = run.reduction
    if red.status is not ReductionStatus.NORMALIZED:
        return Verdict.INCONCLUSIVE, run.witness(stage="normalize", status=red.status.value)
    # construct's first peel: color 0 at its lowest pivot.
    (color, pivot, right), residual = run.first_peel
    if residual.status is not ReductionStatus.NORMALIZED:
        return Verdict.INCONCLUSIVE, run.witness(stage="residual", status=residual.status.value)
    if right in residual.right_map:
        return Verdict.VIOLATED, run.witness(color=color, pivot=pivot, peeled_right=right)
    return Verdict.HOLDS, None


def _eval_h4(run: InstanceRun) -> tuple[Verdict, dict | None]:
    outcome = run.construction
    if outcome.status is ConstructStatus.MATCHED:
        return Verdict.HOLDS, None
    # An unmatched search has run out of peels unless a reduction's cap
    # stopped it; a capped failure ranks above every other.
    exhausted = outcome.failure.reason is not FailReason.ITERATION_CAP
    verdict = Verdict.VIOLATED if exhausted and run.max_size >= run.g.n else Verdict.INCONCLUSIVE
    return verdict, run.witness(oracle_max=run.max_size, failure=outcome.failure.to_dict())


def _eval_h5(run: InstanceRun) -> tuple[Verdict, dict | None]:
    outcome = run.construction
    if outcome.status is ConstructStatus.MATCHED:
        return Verdict.HOLDS, None
    if outcome.candidate is not None:
        return Verdict.VIOLATED, run.witness(
            candidate=edge_lists(outcome.candidate.edges)
        )
    return Verdict.INCONCLUSIVE, run.witness(failure=outcome.failure.to_dict())


_EVALUATORS: dict[Hypothesis, Callable[[InstanceRun], tuple[Verdict, dict | None]]] = {
    Hypothesis.CONJ: _eval_conj,
    Hypothesis.H1: _eval_h1,
    Hypothesis.H2: _eval_h2,
    Hypothesis.H3: _eval_h3,
    Hypothesis.H4: _eval_h4,
    Hypothesis.H5: _eval_h5,
}


def evaluate(
    hyp: Hypothesis,
    g: ColoredMultigraph,
    opts: EvalOptions = EvalOptions(),
    run: InstanceRun | None = None,
) -> tuple[Verdict, dict | None]:
    """Evaluate one hypothesis on one instance.  Pure and deterministic.

    ``run`` shares the pipeline with other hypotheses evaluated on the same
    instance and options; without it a fresh run is made.
    """
    if run is None:
        run = InstanceRun(g, opts)
    elif run.g is not g or run.opts != opts:
        raise ValueError("run belongs to another instance or other options")
    if g.n < 2 and hyp in (Hypothesis.H3, Hypothesis.H4, Hypothesis.H5):
        # These peel a color and recurse on the rest, which takes two.
        return Verdict.INCONCLUSIVE, None
    return _EVALUATORS[hyp](run)


# Specs per pool task, so that one round trip carries a chunk's records.
# On 100-spec H4 batches at n=4 7x6 with two workers, chunks of 4, 8 and 16
# ran within noise of each other.
SPEC_CHUNK = 8


def _eval_instance(
    spec: GenSpec, g: ColoredMultigraph, hyps: tuple[Hypothesis, ...], opts: EvalOptions
) -> list[CampaignRecord]:
    """One record per hypothesis, all evaluated on one shared run; a
    record's time is that hypothesis's cost on top of the earlier ones."""
    digest = canonical_digest(g)
    run = InstanceRun(g, opts)
    records = []
    for hyp in hyps:
        t0 = time.perf_counter()
        verdict, witness = evaluate(hyp, g, opts, run)
        ms = round((time.perf_counter() - t0) * 1000, 3)
        records.append(CampaignRecord(hyp, spec, digest, verdict, witness, ms))
    return records


def _eval_spec(
    spec: GenSpec, cap: int, hyps: tuple[Hypothesis, ...], opts: EvalOptions
) -> list[list[CampaignRecord]]:
    """The records of each of the spec's first ``cap`` instances; none past
    them is generated."""
    return [_eval_instance(spec, g, hyps, opts) for g in islice(instances_for(spec), cap)]


def run_campaign(
    hyps: tuple[Hypothesis, ...],
    specs: Iterable[GenSpec],
    budget: int | None = None,
    opts: EvalOptions = EvalOptions(),
    workers: int = 1,
) -> tuple[list[CampaignSummary], list[CampaignRecord]]:
    """Evaluate every hypothesis of ``hyps`` over every instance the spec
    stream produces.

    Each instance is generated once and all hypotheses are evaluated on one
    shared run of its pipeline.  Returns one summary per hypothesis in the
    order of ``hyps``, and the records grouped the same way: all records of
    the first hypothesis in instance order, then those of the second, and so
    on.  ``budget`` caps the number of instances of the whole stream, so an
    enumeration can be cut part-way; hitting the cap only flags the
    summaries as truncated.  Each spec states its size (``GenSpec.size``),
    so the shares are fixed before anything runs: a spec evaluates exactly
    its share of the stream's first ``budget`` instances, and a spec whose
    share is zero never runs.  The unit of work is a spec: it is generated
    and evaluated where it runs.  With ``workers > 1`` and more than one
    spec to run, an ordered process pool takes them in chunks of
    ``SPEC_CHUNK`` and the parent only flattens and tallies the records, so
    an enumeration, being one spec, runs in one worker.  The record order
    (and hence the output bytes, timing aside) is identical to a sequential
    run.
    """
    hyps = tuple(hyps)
    specs = list(specs)
    sizes = [spec.size for spec in specs]
    truncated = budget is not None and sum(sizes) > budget
    caps = sizes
    if truncated:
        # Every spec yields an instance, so the non-zero shares are those
        # of a prefix of the specs, the last one perhaps cut part-way.
        starts = accumulate(sizes, initial=0)
        caps = [min(size, budget - start) for size, start in zip(sizes, starts) if start < budget]
        specs = specs[:len(caps)]
    evaluate_spec = partial(_eval_spec, hyps=hyps, opts=opts)
    if workers > 1 and len(specs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # doubles import time: load on use
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_instance = list(chain.from_iterable(
                pool.map(evaluate_spec, specs, caps, chunksize=SPEC_CHUNK)
            ))
    else:
        per_instance = list(chain.from_iterable(map(evaluate_spec, specs, caps)))

    summaries: list[CampaignSummary] = []
    records: list[CampaignRecord] = []
    for h, hyp in enumerate(hyps):
        column = [recs[h] for recs in per_instance]
        counts = {v: 0 for v in Verdict}
        for rec in column:
            counts[rec.verdict] += 1
        summaries.append(CampaignSummary(
            hypothesis=hyp,
            trials=len(column),
            holds=counts[Verdict.HOLDS],
            violated=counts[Verdict.VIOLATED],
            inconclusive=counts[Verdict.INCONCLUSIVE],
            truncated=truncated,
            wall_time_ms=round(sum(rec.wall_time_ms for rec in column), 3),
        ))
        records.extend(column)
    return summaries, records


def write_records(records: Iterable[CampaignRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(rec.to_json_line() + "\n")


def replay(records: Iterable[dict]) -> ReplayReport:
    """Re-run every Violated record's predicate on its embedded instance;
    a non-reproducing record indicates a determinism bug.

    Records are grouped by their exact instance (edge order included) and
    options, and each group's hypotheses are evaluated on one fresh run.
    Raises ValueError, prefixed ``record <i>: ``, on a record that is not an
    object or whose hypothesis, instance or options are invalid; an error
    while evaluating a group names the group's first record.
    """
    total = 0
    violated = 0
    mismatches: list[int] = []
    groups: dict[tuple[ColoredMultigraph, EvalOptions], list[tuple[int, Hypothesis]]] = {}
    for idx, rec in enumerate(records):
        total += 1
        try:
            if not isinstance(rec, dict):
                raise ValueError("not a JSON object")
            if rec.get("verdict") != Verdict.VIOLATED.value:
                continue
            violated += 1
            if "hyp" not in rec:
                raise ValueError("missing key 'hyp'")
            hyp = Hypothesis(rec["hyp"])
            witness = rec.get("witness")
            if not isinstance(witness, dict) or "instance" not in witness:
                mismatches.append(idx)
                continue
            key = (from_dict(witness["instance"]), EvalOptions.from_dict(witness.get("opts", {})))
        except ValueError as exc:
            raise ValueError(f"record {idx}: {exc}") from exc
        groups.setdefault(key, []).append((idx, hyp))
    for (g, opts), items in groups.items():
        try:
            run = InstanceRun(g, opts)
            for idx, hyp in items:
                verdict, _ = evaluate(hyp, g, opts, run)
                if verdict is not Verdict.VIOLATED:
                    mismatches.append(idx)
        except ValueError as exc:
            raise ValueError(f"record {items[0][0]}: {exc}") from exc
    mismatches.sort()
    return ReplayReport(total, violated, violated - len(mismatches), tuple(mismatches))


def violation_predicate(
    hyp: Hypothesis, opts: EvalOptions = EvalOptions()
) -> Callable[[ColoredMultigraph], bool]:
    """Predicate for minimization: the instance still violates ``hyp``.  An
    instance outside the domain, which making its ``InstanceRun`` refuses,
    answers False."""

    def pred(g: ColoredMultigraph) -> bool:
        try:
            run = InstanceRun(g, opts)
        except ValueError:
            return False
        return evaluate(hyp, g, opts, run)[0] is Verdict.VIOLATED

    return pred


def minimize(
    g: ColoredMultigraph, predicate: Callable[[ColoredMultigraph], bool]
) -> ColoredMultigraph:
    """Shrink a violating instance: its compaction if the predicate still
    holds there, else ``g``.  The predicate is the one judge of the domain,
    as ``violation_predicate`` is by making an ``InstanceRun``.

    Only isolated vertices can go: deleting a color or a vertex that
    carries an edge breaks the counts.  Every verdict reads only the edges,
    so a violation predicate holds on the compaction whenever it holds on
    ``g``.
    """
    if not predicate(g):
        raise ValueError("predicate does not hold on the input instance")
    compact, _, _ = compact_isolated(g)
    return compact if compact is not g and predicate(compact) else g
