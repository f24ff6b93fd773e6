#!/usr/bin/env python3
"""Campaign benchmark for rainbowmatch.

Runs one named workload against the checkout this file belongs to, checks
every output, and prints one JSON result line last:

    python3 perfbench/run.py --workload battery_n3 --seed 0 --seconds 20 --trace 0

Every workload drives the public entry point ``rainbowmatch.cli.main([...])``
in-process, as a closed loop with one client: the next batch starts when the
previous one has finished.  Batches run until ``--seconds`` is spent.  Batch
``k`` of ``--seed s`` covers the instance seeds ``s * STRIDE + k * batch``
onwards, so a run is a pure function of its seed and its batch count.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json, untraced.
``--trace 1`` alternates a traced and an untraced run of each batch and
reports the ``per_layer`` metrics (see tracing.py): call counts and outcome
counters per instance from the first batch, which repeat exactly for a seed;
self times per instance as medians over batches; per-hypothesis trial
latencies; and the tracing overhead.  Times of single-process calls are
scaled to a reference host speed (see hostspeed.py); the wall-clock rate is
printed beside them.

Inputs, records and spans go to a temporary directory inside the checkout,
removed on exit.  The exit code is 0 when every output checked out, 1 when
one did not (the result line still says which), and 2 when the benchmark
could not run at all, for example outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import SpeedProbe
from tracing import Tracer, aggregate, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

STRIDE = 1_000_000
SETUP_REPEATS = 5
ALL_HYPS = ("H1", "H2", "H3", "H4", "H5", "CONJ")
VERDICTS = ("holds", "violated", "inconclusive")
TIMING_KEYS = ("ms", "timing")  # stripped before records are compared
IMPORT_PROBE = (
    f"import sys; sys.path.insert(0, {str(HERE)!r}); import hostspeed; "
    "print(hostspeed.bracketed(lambda: __import__('rainbowmatch.cli')))"
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "campaign" or "solve"
    batch: int  # instances per cli.main call
    n: int = 0
    left: int = 0
    right: int = 0
    hyps: tuple[str, ...] = ALL_HYPS
    workers: int = 1
    replay: bool = False  # replay each batch's records inside the timed region
    order: int = 0  # latin square order for solve


WORKLOADS = {
    "battery_n3": Workload("campaign", 100, n=3, left=6, right=5, replay=True),
    "deep_h4_n4": Workload("campaign", 50, n=4, left=7, right=6, hyps=("H4",)),
    "sharded_h4_n4": Workload("campaign", 100, n=4, left=7, right=6, hyps=("H4",), workers=2),
    "solve_stream": Workload("solve", 10_000, order=8),
}

# per-layer metric -> (layer, outcome counter), read per instance
COUNTER_METRICS = {
    "oracle.nodes": ("oracle.max_rainbow", "nodes"),
    "shifting.moves": ("shifting.shift", "moves"),
    "shifting.swaps": ("shifting.shift", "swaps"),
    "reduction.iterations": ("reduction.reduce", "iterations"),
    "construct.attempts": ("construct", "attempts"),
}
# per-layer metric -> (layer, outcome counter), read per call of the layer
RATIO_METRICS = {
    "reduction.normalized_ratio": ("reduction.reduce", "normalized"),
    "construct.matched_ratio": ("construct", "matched"),
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Batch:
    index: int
    base: int
    dir: Path
    wall: float = 0.0  # seconds on the clock
    seconds: float = 0.0  # CPU time at reference host speed, or wall time with a pool
    call_seconds: float = 0.0
    replay_seconds: float = 0.0
    rc: int | None = None
    replayed: bool = False
    replay_rc: int | None = None


@dataclass
class BatchCheck:
    failed: set[int] = field(default_factory=set)  # positions of failed instances
    counts: dict[str, list[int]] = field(default_factory=dict)  # hyp -> verdict counts


class Run:
    def __init__(self, name: str, seed: int, tmp: Path, cli):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.tmp = tmp
        self.cli = cli
        self.problems: list[str] = []
        self.input_path = tmp / "instances.jsonl"
        self.fingerprint = None
        if self.w.kind == "campaign":
            self.fingerprint = json.loads((HERE / "fingerprints.json").read_text())[name]
            if self.fingerprint["batch"] != self.w.batch:
                raise SetupError(f"fingerprints.json holds batches of "
                                 f"{self.fingerprint['batch']}, not {self.w.batch}")

    # -- driving the program -------------------------------------------

    def call(self, argv: list[str]) -> int | None:
        try:
            return self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            return None

    def timed_call(self, argv: list[str]) -> tuple[int | None, float, float]:
        """Exit code, wall time and time at reference host speed of one call.
        A run with a worker pool keeps its wall time (see hostspeed.py)."""
        if self.w.workers > 1:
            t0 = time.perf_counter()
            rc = self.call(argv)
            wall = time.perf_counter() - t0
            return rc, wall, wall
        with SpeedProbe() as probe:
            rc = self.call(argv)
        return rc, probe.wall, probe.seconds

    def campaign_argv(self, base: int, out: Path, workers: int) -> list[str]:
        w = self.w
        argv = [
            "check", "--kind", "random", "--n", str(w.n), "--left", str(w.left),
            "--right", str(w.right), "--seed", str(base), "--count", str(w.batch),
            "--workers", str(workers), "--records", str(out / "records.jsonl"),
            "--out", str(out / "summary.jsonl"),
        ]
        if w.hyps != ALL_HYPS:
            for hyp in w.hyps:
                argv += ["--hyp", hyp]
        return argv

    def setup(self) -> float:
        """Median over SETUP_REPEATS of: the time a fresh interpreter takes
        to import the package, plus writing the workload's input file; both
        CPU time at reference host speed."""
        samples = []
        for _ in range(SETUP_REPEATS):
            child = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], env=checkout_env(), cwd=self.tmp,
                capture_output=True, text=True, timeout=120, check=True,
            )
            seconds = float(child.stdout)
            if self.w.kind == "solve":
                with SpeedProbe() as gen:
                    rc = self.call([
                        "gen", "--kind", "latin", "--order", str(self.w.order),
                        "--seed", str(self.seed * STRIDE), "--count", str(self.w.batch),
                        "--out", str(self.input_path),
                    ])
                if rc != 0:
                    raise SetupError(f"gen exited {rc}")
                seconds += gen.seconds
            samples.append(seconds)
        return statistics.median(samples)

    def run_batch(self, index: int, tag: str) -> Batch:
        base = self.seed * STRIDE + index * self.w.batch
        b = Batch(index, base, self.tmp / f"{tag}-{index:03d}")
        b.dir.mkdir()
        if self.w.kind == "solve":
            argv = ["solve", "--in", str(self.input_path), "--out", str(b.dir / "solved.jsonl")]
        else:
            argv = self.campaign_argv(base, b.dir, self.w.workers)
        b.rc, b.wall, b.call_seconds = self.timed_call(argv)
        if self.w.replay:
            b.replay_rc, wall, b.replay_seconds = self.timed_call(self.replay_argv(b))
            b.replayed = True
            b.wall += wall
        b.seconds = b.call_seconds + b.replay_seconds
        return b

    @staticmethod
    def replay_argv(b: Batch) -> list[str]:
        return ["replay", "--in", str(b.dir / "records.jsonl"), "--out", str(b.dir / "replay.json")]

    # -- checking outputs ----------------------------------------------

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"CHECK FAILED [{self.name}]: {text}", file=sys.stderr)

    def check_campaign(self, b: Batch) -> BatchCheck:
        w, B = self.w, self.w.batch
        out = BatchCheck()
        if b.rc != 0:
            self.problem(f"batch {b.index}: check exited {b.rc}")
            out.failed = set(range(B))
            return out
        records = read_jsonl(b.dir / "records.jsonl")
        summaries = {d.get("hyp"): d for d in read_jsonl(b.dir / "summary.jsonl") if d}
        if len(records) != len(w.hyps) * B:
            self.problem(f"batch {b.index}: {len(records)} records, expected {len(w.hyps) * B}")
        for h, hyp in enumerate(w.hyps):
            counts = dict.fromkeys(VERDICTS, 0)
            for i in range(B):
                j = h * B + i
                rec = records[j] if j < len(records) else None
                if not valid_record(rec, hyp, b.base + i):
                    out.failed.add(i)
                    continue
                counts[rec["verdict"]] += 1
                if hyp == "CONJ" and rec["verdict"] == "violated":
                    self.problem(f"batch {b.index}: CONJ violated at seed {b.base + i}")
                    out.failed.add(i)
            out.counts[hyp] = [counts[v] for v in VERDICTS]
            s = summaries.get(hyp) or {}
            if [s.get(v) for v in VERDICTS] != out.counts[hyp] or s.get("trials") != B:
                self.problem(f"batch {b.index}: {hyp} summary {s} disagrees with its records")
                out.failed.update(range(B))
        if out.failed:
            self.problem(f"batch {b.index}: {len(out.failed)} instances with missing or invalid records")
        if b.replayed:
            self.check_replay(b, records, out)
        return out

    def check_replay(self, b: Batch, records: list, out: BatchCheck) -> None:
        B = self.w.batch
        report = read_json(b.dir / "replay.json")
        mismatches = report.get("mismatches") if isinstance(report, dict) else None
        if b.replay_rc not in (0, 4) or not isinstance(mismatches, list) or not all(
            isinstance(j, int) for j in mismatches
        ):
            self.problem(f"batch {b.index}: replay exited {b.replay_rc} with report {report}")
            out.failed.update(range(B))
            return
        violated = sum(1 for r in records if isinstance(r, dict) and r.get("verdict") == "violated")
        expected = {"total": len(records), "violated": violated,
                    "reproduced": violated - len(mismatches)}
        if any(report.get(k) != v for k, v in expected.items()):
            self.problem(f"batch {b.index}: replay report {report} expected {expected}")
            out.failed.update(range(B))
            return
        if mismatches or b.replay_rc != 0:
            self.problem(f"batch {b.index}: replay mismatches at records {mismatches}")
            out.failed.update(j % B for j in mismatches)

    def check_solve(self, b: Batch, verified: dict[bytes, set[int]]) -> BatchCheck:
        """Each output line: digest of its input line, ``max == n`` and a
        witness that is a rainbow matching of the instance.  Outputs equal
        byte for byte to one already checked share its result."""
        from rainbowmatch.graph import Matching, canonical_digest, from_json, is_rainbow_matching

        out = BatchCheck()
        if b.rc != 0:
            self.problem(f"batch {b.index}: solve exited {b.rc}")
            out.failed = set(range(self.w.batch))
            return out
        solved = (b.dir / "solved.jsonl").read_bytes()
        if solved in verified:
            out.failed = verified[solved]
            return out
        lines = solved.decode("utf-8", errors="replace").splitlines()
        with open(self.input_path, encoding="utf-8") as inputs:
            for i, text in enumerate(inputs):
                try:
                    g = from_json(text)
                    got = json.loads(lines[i])
                    ok = (
                        got["digest"] == canonical_digest(g)
                        and got["max"] == g.n
                        and is_rainbow_matching(g, Matching.of(got["witness"]), g.n)
                    )
                except (IndexError, KeyError, TypeError, ValueError):
                    ok = False
                if not ok:
                    out.failed.add(i)
        if len(lines) != self.w.batch:
            self.problem(f"batch {b.index}: {len(lines)} output lines, expected {self.w.batch}")
        if out.failed:
            self.problem(f"batch {b.index}: {len(out.failed)} wrong solve outputs")
        verified[solved] = out.failed
        return out

    def check_fingerprint(self, b: Batch, counts: dict[str, list[int]]) -> bool | None:
        """Compare verdict counts with the stored ones; None when this batch
        has no stored fingerprint."""
        expected = self.fingerprint["counts"].get(str(b.base)) if self.seed == 0 else None
        if expected is None:
            return None
        if expected != counts:
            self.problem(f"batch {b.index}: verdict counts {counts} differ from fingerprint {expected}")
            return False
        return True

    def reference(self, batches: list[Batch]) -> dict[int, Path]:
        """Records of each batch from sequential ``--workers 1`` runs of the
        command line, two processes at a time."""
        ref: dict[int, Path] = {}
        jobs = []
        for b in batches:
            if b.index not in ref:
                ref[b.index] = self.tmp / f"reference-{b.index:03d}"
                ref[b.index].mkdir()
                jobs.append([sys.executable, "-m", "rainbowmatch",
                             *self.campaign_argv(b.base, ref[b.index], 1)])
        for rc in run_parallel(jobs, self.tmp, limit=2):
            if rc != 0:
                self.problem(f"sequential reference run exited {rc}")
        return ref

    def check_all(self, batches: list[Batch]) -> tuple[int, int, dict]:
        """Check every batch; returns (attempted, failed, fingerprint tally)."""
        attempted = failed = 0
        tally = {"matched": 0, "not_stored": 0, "differs": 0}
        solved: dict[bytes, set[int]] = {}
        ref = self.reference(batches) if self.w.workers > 1 else {}
        if self.w.kind == "campaign" and not self.w.replay and not ref:
            # Outside the timed region, the first batch's records must replay.  A
            # sharded workload is compared with --workers 1 records instead.
            batches[0].replay_rc = self.call(self.replay_argv(batches[0]))
            batches[0].replayed = True
        for b in batches:
            if self.w.kind == "solve":
                v = self.check_solve(b, solved)
            else:
                v = self.check_campaign(b)
                if b.index in ref:
                    differ = diff_records(b.dir / "records.jsonl", ref[b.index] / "records.jsonl",
                                          self.w.batch)
                    if differ:
                        self.problem(f"batch {b.index}: {len(differ)} sharded records differ "
                                     "from the --workers 1 records")
                    v.failed |= differ
                found = self.check_fingerprint(b, v.counts)
                tally[{True: "matched", False: "differs", None: "not_stored"}[found]] += 1
            attempted += self.w.batch
            failed += len(v.failed)
        return attempted, failed, tally


# -- helpers -------------------------------------------------------------


def read_jsonl(path: Path) -> list:
    """Parsed lines of a JSONL file; None for a line that does not parse."""
    if not path.exists():
        return []
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            try:
                out.append(json.loads(line))
            except ValueError:
                out.append(None)
    return out


def read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def valid_record(rec, hyp: str, seed: int) -> bool:
    if not isinstance(rec, dict) or rec.get("hyp") != hyp:
        return False
    if not isinstance(rec.get("spec"), dict) or rec["spec"].get("seed") != seed:
        return False
    if rec.get("verdict") not in VERDICTS:
        return False
    return rec["verdict"] != "violated" or "instance" in (rec.get("witness") or {})


def strip_timing(line: str) -> str:
    try:
        rec = json.loads(line)
    except ValueError:
        return line
    if isinstance(rec, dict):
        for key in TIMING_KEYS:
            rec.pop(key, None)
    return json.dumps(rec, separators=(",", ":"))


def diff_records(path_a: Path, path_b: Path, batch: int) -> set[int]:
    """Instance positions whose records differ once timings are stripped."""
    def lines(p: Path) -> list[str]:
        return p.read_text(encoding="utf-8").splitlines() if p.exists() else []

    a, b = lines(path_a), lines(path_b)
    differ = {j % batch for j in range(max(len(a), len(b)))
              if j >= len(a) or j >= len(b) or strip_timing(a[j]) != strip_timing(b[j])}
    return differ if a or b else set(range(batch))


def checkout_env() -> dict[str, str]:
    """Environment for child interpreters that import this checkout's package."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_parallel(cmds: list[list[str]], cwd: Path, limit: int) -> list[int]:
    """Run commands at most ``limit`` at a time; every process is waited for."""
    env = checkout_env()
    codes: list[int] = []
    running: list[subprocess.Popen] = []
    pending = list(cmds)
    try:
        while pending or running:
            while pending and len(running) < limit:
                running.append(subprocess.Popen(pending.pop(0), cwd=cwd, env=env,
                                                stdout=subprocess.DEVNULL))
            codes.append(running.pop(0).wait(timeout=170))
    finally:
        for p in running:
            p.kill()
            p.wait()
    return codes


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process, plus ``workers`` times the
    largest peak among its finished child processes when the workload runs a
    worker pool: an upper bound on the pool's share that needs no sampling."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + pool) / 1024


def repeat_for(seconds: float, step) -> list:
    """Results of ``step(0)``, ``step(1)``, ... while one more call is
    expected to end within ``seconds`` of the first; at least one call."""
    results: list = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if results and elapsed + elapsed / len(results) > seconds:
            return results
        results.append(step(len(results)))


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)} p25={q[0]:.4g} p75={q[2]:.4g}"


# -- the two kinds of run ------------------------------------------------


def untraced(run: Run, seconds: float) -> tuple[dict, list[Batch]]:
    setup_s = run.setup()
    batches = repeat_for(seconds, lambda k: run.run_batch(k, "untraced"))
    peak_mb = peak_rss_mb(run.w.workers)
    done = len(batches) * run.w.batch
    extra = {
        "wall_instances_per_s": (done / sum(b.wall for b in batches), "1/s"),
        "host_speed": (sum(b.seconds for b in batches) / sum(b.wall for b in batches), "ratio"),
        "batches": (len(batches), "count"),
    }
    if run.w.replay:
        extra["campaign_instances_per_s"] = (done / sum(b.call_seconds for b in batches), "1/s")
        extra["replay_records_per_s"] = (
            len(run.w.hyps) * done / sum(b.replay_seconds for b in batches), "1/s")
    rates = [run.w.batch / b.seconds for b in batches]
    print(f"# instances_per_s of single batches: {spread(rates)}")
    metrics = {
        # all instances over all batch time: batches differ in content, and
        # an H4 instance costs anywhere from 1 to 150 ms
        "instances_per_s": (done / sum(b.seconds for b in batches), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return metrics | extra, batches


def traced(run: Run, seconds: float, names: list[str]) -> tuple[dict, list[Batch]]:
    run.setup()
    tracer = Tracer(run.tmp / "children")
    tracer.child_dir.mkdir()

    def pair(k: int) -> tuple[Batch, Batch, dict]:
        mark = len(tracer.spans)
        tracer.install()
        try:
            t = run.run_batch(k, "traced")
        finally:
            tracer.uninstall()
        tracer.collect_children()
        return t, run.run_batch(k, "untraced"), aggregate(tracer.spans[mark:])

    pairs = repeat_for(seconds, pair)
    tracer.write(run.tmp / "spans.jsonl")

    B = run.w.batch
    first = pairs[0][2]["layers"]

    def speed(pair) -> float:  # host speed during the traced batch of a pair
        return pair[0].seconds / pair[0].wall

    metrics: dict[str, tuple[float, str]] = {}
    for name in names:
        if name.endswith(".calls"):
            value = (first.get(name[:-6], {}).get("calls", 0) / B, "calls/instance")
        elif name.endswith(".self_ms"):
            per_batch = [p[2]["layers"].get(name[:-8], {}).get("self_ns", 0) / 1e6 / B * speed(p)
                         for p in pairs]
            value = (statistics.median(per_batch), "ms/instance")
        elif name in COUNTER_METRICS:
            layer, key = COUNTER_METRICS[name]
            value = (first.get(layer, {}).get(key, 0) / B, "count/instance")
        elif name in RATIO_METRICS:
            layer, key = RATIO_METRICS[name]
            totals = first.get(layer, {})
            value = (totals.get(key, 0) / totals["calls"] if totals.get("calls") else 0.0, "ratio")
        elif name.startswith("harness.") and name[-7:] in (".ms_p50", ".ms_p95"):
            samples = [ms * speed(p) for p in pairs
                       for ms in p[2]["evaluate_ms"].get(name.split(".")[1], ())]
            value = (percentile(samples, int(name[-2:])), "ms/trial")
        else:
            continue
        metrics[name] = value
    traced_s = [p[0].seconds for p in pairs]
    untraced_s = [p[1].seconds for p in pairs]
    metrics["trace.traced_instances_per_s"] = (statistics.median(B / s for s in traced_s), "1/s")
    metrics["trace.untraced_instances_per_s"] = (statistics.median(B / s for s in untraced_s), "1/s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(t / u for t, u in zip(traced_s, untraced_s)), "ratio")
    for t, u, _ in pairs:
        name = "solved.jsonl" if run.w.kind == "solve" else "records.jsonl"
        differ = diff_records(t.dir / name, u.dir / name, B)
        if differ:
            run.problem(f"batch {t.index}: traced outputs differ from untraced at {len(differ)} instances")
    batches = [b for t, u, _ in pairs for b in (t, u)]
    return metrics, batches


def import_checkout():
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "rainbowmatch" / "__init__.py").is_file():
        raise SetupError(f"no rainbowmatch package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rainbowmatch.cli

    where = Path(rainbowmatch.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"rainbowmatch imported from {where}, outside the checkout")
    return rainbowmatch.cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cli = import_checkout()
    except (OSError, ValueError, ImportError, SetupError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            run = Run(args.workload, args.seed, Path(tmp), cli)
            t0 = time.perf_counter()
            if args.trace:
                metrics, batches = traced(run, args.seconds, [m["name"] for m in wanted])
            else:
                metrics, batches = untraced(run, args.seconds)
            t1 = time.perf_counter()
            attempted, failed, tally = run.check_all(batches)
            print(f"# set-up and batches {t1 - t0:.1f} s, checks {time.perf_counter() - t1:.1f} s")
    except (OSError, SetupError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass

    metrics["failed_share"] = (failed / attempted, "share")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} instances attempted, {failed} failed")
    if run.w.kind == "campaign":
        print(f"# verdict fingerprint: {tally['matched']} batches matched, "
              f"{tally['differs']} differ, {tally['not_stored']} not stored for this seed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    missing = [m["name"] for m in wanted if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if missing:
        print(f"perfbench: metrics not produced with their BENCHMARK.json unit: {missing}",
              file=sys.stderr)
        return 2
    correct = not run.problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
