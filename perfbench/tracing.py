"""Span tracing for the benchmark's traced run.

``Tracer.install`` wraps the public function of each layer of
``src/rainbowmatch/`` and puts the wrapper at every place the function is
bound: the modules import each other with ``from .graph import validate``
and similar, so patching only the defining module would miss most calls.
Each call records one span: process id, span id, parent span id, the id of
the enclosing instance span (``harness.evaluate`` or a ``solve`` call of
``oracle.max_rainbow``), layer, start and end in ns, self time in ns and the
counters read from the returned outcome.  Self time is the span's duration
minus the time its child spans cover.

Spans stay in memory.  Worker processes forked by ``check --workers N``
inherit the wrappers; each appends its spans to a file of its own whenever
its outermost span ends, and ``collect_children`` merges those files into the
parent's list.  ``uninstall`` restores every binding and fails if a wrapper
is left anywhere.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module under rainbowmatch, function) -> layer name reported in metrics
LAYERS = {
    ("cli", "main"): "cli.main",
    ("harness", "evaluate"): "harness.evaluate",
    ("harness", "replay"): "harness.replay",
    ("generators", "instances_for"): "generators.instances_for",
    ("generators", "gen_random"): "generators.gen",
    ("generators", "gen_latin"): "generators.gen",
    ("graph", "validate"): "graph.validate",
    ("graph", "canonical_digest"): "graph.canonical_digest",
    ("graph", "is_rainbow_matching"): "graph.is_rainbow_matching",
    ("graph", "read_instances"): "graph.parse",
    ("graph", "from_dict"): "graph.parse",
    ("oracle", "max_rainbow"): "oracle.max_rainbow",
    ("oracle", "rainbow_pairs"): "oracle.rainbow_pairs",
    ("shifting", "shift"): "shifting.shift",
    ("reduction", "reduce_to_normal_form"): "reduction.reduce",
    ("reduction", "pick_donor"): "reduction.pick_donor",
    ("reduction", "compact_isolated"): "reduction.compact_isolated",
    ("construct", "construct"): "construct",
}

# A span of one of these layers with no enclosing instance span starts a new
# instance: an evaluated trial, or one instance of a ``solve`` stream.
INSTANCE_LAYERS = {"harness.evaluate", "oracle.max_rainbow"}


def _hyp_label(args, kwargs) -> dict:
    hyp = args[0] if args else kwargs["hyp"]
    return {"hyp": getattr(hyp, "value", str(hyp))}


# Counters read from the outcome object each layer returns.
COUNTERS = {
    "oracle.max_rainbow": lambda r: {"nodes": r.nodes_explored},
    "shifting.shift": lambda r: {"moves": r.moves, "swaps": r.swaps},
    "reduction.reduce": lambda r: {
        "iterations": r.iterations,
        "normalized": int(r.status.value == "normalized"),
    },
    "construct": lambda r: {
        "attempts": r.attempts,
        "matched": int(r.status.value == "matched"),
    },
}

_MARK = "_perfbench_original"


class Tracer:
    def __init__(self, child_dir: Path):
        self.child_dir = child_dir
        self.pid = os.getpid()
        self.is_child = False
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [span id, instance id, child ns]
        self.next_id = 0
        self.patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _become_child(self) -> None:
        # First traced call in a forked worker: drop the state copied from
        # the parent, whose open spans belong to the parent's record.
        self.pid = os.getpid()
        self.is_child = True
        self.spans = []
        self.stack = []

    def _flush_child(self) -> None:
        path = self.child_dir / f"child-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")
        self.spans = []

    def _wrap(self, layer: str, fn):
        tracer = self
        counters = COUNTERS.get(layer)
        label = _hyp_label if layer == "harness.evaluate" else None
        starts_instance = layer in INSTANCE_LAYERS
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._become_child()
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1] if stack else None
            instance = parent[1] if parent is not None else None
            if instance is None and starts_instance:
                instance = sid
            frame = [sid, instance, 0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                info = label(args, kwargs) if label is not None else None
                if counters is not None and result is not None:
                    info = counters(result)
                tracer.spans.append((
                    tracer.pid,
                    sid,
                    parent[0] if parent is not None else None,
                    instance,
                    layer,
                    start,
                    end,
                    end - start - frame[2],
                    info,
                ))
                if tracer.is_child and not stack:
                    tracer._flush_child()

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installation --------------------------------------------------

    @staticmethod
    def _package_modules() -> list:
        for mod_name, _ in LAYERS:
            importlib.import_module(f"rainbowmatch.{mod_name}")
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "rainbowmatch" or name.startswith("rainbowmatch."))
        ]

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        modules = self._package_modules()
        wrappers: dict[int, tuple[object, object]] = {}
        for (mod_name, fn_name), layer in LAYERS.items():
            original = getattr(sys.modules[f"rainbowmatch.{mod_name}"], fn_name)
            if hasattr(original, _MARK):
                raise RuntimeError(f"{mod_name}.{fn_name} is already wrapped")
            wrappers[id(original)] = (original, self._wrap(layer, original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])
                    self.patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in self.patched:
            setattr(mod, attr, original)
        self.patched = []
        left = [
            f"{mod.__name__}.{attr}"
            for mod in self._package_modules()
            for attr, value in vars(mod).items()
            if hasattr(value, _MARK)
        ]
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")

    def collect_children(self) -> None:
        """Move the spans written by forked workers into ``self.spans``."""
        for path in sorted(self.child_dir.glob("child-*.jsonl")):
            with open(path, encoding="utf-8") as f:
                self.spans.extend(tuple(json.loads(line)) for line in f)
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


def aggregate(spans: list[tuple]) -> dict:
    """Per-layer totals of a list of spans: ``calls``, ``self_ns`` and each
    outcome counter; plus ``evaluate_ms``, the durations of campaign
    ``evaluate`` spans (those not under ``replay``) keyed by hypothesis."""
    layers: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    layer_of = {(s[0], s[1]): s[4] for s in spans}
    evaluate_ms: dict[str, list[float]] = defaultdict(list)
    for pid, _sid, parent, _inst, layer, start, end, self_ns, info in spans:
        totals = layers[layer]
        totals["calls"] += 1
        totals["self_ns"] += self_ns
        if layer == "harness.evaluate":
            if layer_of.get((pid, parent)) != "harness.replay":
                evaluate_ms[info["hyp"]].append((end - start) / 1e6)
        elif info:
            for key, value in info.items():
                totals[key] += value
    return {"layers": layers, "evaluate_ms": evaluate_ms}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
