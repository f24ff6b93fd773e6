"""Core value types for properly edge-colored bipartite multigraphs.

Everything here is an immutable value; all operations are pure functions, so
graphs can be shared freely across worker processes.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

RULE_SHAPE = "shape"
RULE_BOUNDS = "bounds"
RULE_PROPERNESS = "properness"
RULE_COUNTS = "counts"

_BY_COLOR = itemgetter(2, 0, 1)  # (u, v, c) -> (c, u, v)


class Side(str, Enum):
    """Which part of the bipartition a vertex index refers to."""

    LEFT = "left"
    RIGHT = "right"

    def other(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


class Edge(NamedTuple):
    """One colored edge: left endpoint ``u``, right endpoint ``v``, color ``c``."""

    u: int
    v: int
    c: int


# ``new_edge((u, v, c))`` is ``Edge(u, v, c)`` built at C speed, for hot
# paths that already hold the triple.
new_edge = partial(tuple.__new__, Edge)


@dataclass(frozen=True)
class ColoredMultigraph:
    """Bipartite multigraph on dense 0-based vertex and color indices.

    A graph is *proper* when every color class is a matching: no two edges of
    the same color share a left vertex or a right vertex.  Parallel edges are
    allowed as long as their colors differ.

    Edge order is part of the value (it pins branch order in the solver and
    rewrite order in shifting); semantic operations treat ``edges`` as a
    multiset.
    """

    n: int
    left_size: int
    right_size: int
    edges: tuple[Edge, ...]

    @staticmethod
    def of(
        n: int,
        left_size: int,
        right_size: int,
        edges: Iterable[tuple[int, int, int]],
    ) -> "ColoredMultigraph":
        """Build a graph from any iterable of ``(u, v, c)`` triples."""
        return ColoredMultigraph(n, left_size, right_size, tuple(Edge(*e) for e in edges))

    def side_size(self, side: Side) -> int:
        return self.left_size if side is Side.LEFT else self.right_size


@dataclass(frozen=True)
class Matching:
    """A set of edges claimed pairwise vertex-disjoint and color-distinct."""

    edges: tuple[Edge, ...]

    @staticmethod
    def of(edges: Iterable[tuple[int, int, int]]) -> "Matching":
        return Matching(tuple(Edge(*e) for e in edges))

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str
    edge_indices: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


_CLEAN = ValidationReport(ok=True, violations=())


def validate(g: ColoredMultigraph, require_counts: bool = False) -> ValidationReport:
    """Report every violated structural invariant of ``g``.

    Checks index bounds and properness; with ``require_counts`` additionally
    checks that each color class has exactly ``n + 1`` edges.  Never raises:
    all problems are reported.  Clean input is accepted on whole columns
    (bounds by ``min``/``max``, properness by counting distinct
    ``(vertex, color)`` pairs) and gets one shared report; only invalid input
    is scanned edge by edge for its violations.
    """
    return _CLEAN if _is_clean(g, require_counts) else _scan(g, require_counts)


def _is_clean(g: ColoredMultigraph, require_counts: bool) -> bool:
    """Whether ``validate`` has nothing to report, decided on whole columns."""
    n, m = g.n, len(g.edges)
    if n < 0 or g.left_size < 0 or g.right_size < 0:
        return False
    if not m:
        return not require_counts or n == 0
    us, vs, cs = zip(*g.edges)
    return (
        0 <= min(us) and max(us) < g.left_size
        and 0 <= min(vs) and max(vs) < g.right_size
        and 0 <= min(cs) and max(cs) < n
        and len(set(zip(us, cs))) == m
        and len(set(zip(vs, cs))) == m
        and (not require_counts or m == n * (n + 1) and max(Counter(cs).values()) == n + 1)
    )


def _scan(g: ColoredMultigraph, require_counts: bool) -> ValidationReport:
    """``validate``'s report, built edge by edge."""
    violations: list[Violation] = []
    if g.n < 0 or g.left_size < 0 or g.right_size < 0:
        violations.append(
            Violation(RULE_SHAPE, f"negative dimension: n={g.n} left={g.left_size} right={g.right_size}", ())
        )

    for i, e in enumerate(g.edges):
        if not (0 <= e.u < g.left_size and 0 <= e.v < g.right_size and 0 <= e.c < g.n):
            violations.append(Violation(RULE_BOUNDS, f"edge {tuple(e)} out of bounds", (i,)))

    by_color: dict[int, list[tuple[int, Edge]]] = {}
    for i, e in enumerate(g.edges):
        by_color.setdefault(e.c, []).append((i, e))
    for c, items in sorted(by_color.items()):
        seen_u: dict[int, int] = {}
        seen_v: dict[int, int] = {}
        for i, e in items:
            if e.u in seen_u:
                violations.append(
                    Violation(RULE_PROPERNESS, f"color {c}: edges share left vertex {e.u}", (seen_u[e.u], i))
                )
            else:
                seen_u[e.u] = i
            if e.v in seen_v:
                violations.append(
                    Violation(RULE_PROPERNESS, f"color {c}: edges share right vertex {e.v}", (seen_v[e.v], i))
                )
            else:
                seen_v[e.v] = i

    if require_counts:
        violations.extend(_count_violations(g.n, by_color))

    return ValidationReport(ok=not violations, violations=tuple(violations))


def _count_violations(n: int, by_color: dict[int, list[tuple[int, Edge]]]) -> list[Violation]:
    """One violation per non-empty color of the wrong size, and one for all
    empty colors together, in color order; the work and the text grow with
    the edges, not with ``n``."""
    out: list[tuple[int, Violation]] = []
    present = sorted(c for c in by_color if 0 <= c < n)
    for c in present:
        items = by_color[c]
        if len(items) != n + 1:
            detail = f"color {c} has {len(items)} edges, expected {n + 1}"
            out.append((c, Violation(RULE_COUNTS, detail, tuple(i for i, _ in items))))
    empty = n - len(present)
    if empty > 0:
        # The lowest color missing from the sorted, distinct ``present``.
        lowest = next((i for i, c in enumerate(present) if c != i), len(present))
        detail = (
            f"color {lowest} has 0 edges, expected {n + 1}"
            if empty == 1
            else f"{empty} colors have 0 edges, expected {n + 1} (lowest: color {lowest})"
        )
        out.append((lowest, Violation(RULE_COUNTS, detail, ())))
        out.sort(key=lambda item: item[0])
    return [v for _, v in out]


def require_valid(g: ColoredMultigraph, require_counts: bool = False) -> None:
    """Raise ValueError naming the first violation ``validate`` reports."""
    report = validate(g, require_counts)
    if not report.ok:
        raise ValueError(f"invalid graph: {report.violations[0].detail}")


def _check_vertex(g: ColoredMultigraph, side: Side, vertex: int) -> None:
    if not 0 <= vertex < g.side_size(side):
        raise ValueError(f"vertex {vertex} out of range for side {side.value} (size {g.side_size(side)})")


def delete_vertex(g: ColoredMultigraph, side: Side, vertex: int) -> ColoredMultigraph:
    """Remove ``vertex`` with its incident edges; reindex that side densely."""
    _check_vertex(g, side, vertex)
    if side is Side.LEFT:
        edges = tuple(
            Edge(e.u if e.u < vertex else e.u - 1, e.v, e.c) for e in g.edges if e.u != vertex
        )
        return ColoredMultigraph(g.n, g.left_size - 1, g.right_size, edges)
    edges = tuple(
        Edge(e.u, e.v if e.v < vertex else e.v - 1, e.c) for e in g.edges if e.v != vertex
    )
    return ColoredMultigraph(g.n, g.left_size, g.right_size - 1, edges)


def is_rainbow_matching(g: ColoredMultigraph, m: Matching, k: int) -> bool:
    """True iff ``m`` has exactly ``k`` edges of ``g``, pairwise disjoint on
    both sides and pairwise color-distinct."""
    if len(m.edges) != k:
        return False
    present = set(g.edges)
    if any(e not in present for e in m.edges):
        return False
    lefts = {e.u for e in m.edges}
    rights = {e.v for e in m.edges}
    colors = {e.c for e in m.edges}
    return len(lefts) == k and len(rights) == k and len(colors) == k


def canonical_edges(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """The edges sorted by (c, u, v)."""
    return tuple(sorted(edges, key=_BY_COLOR))


def edge_lists(edges: Iterable[Edge]) -> list[list[int]]:
    """JSON form of an edge sequence: one ``[u, v, c]`` list per edge, in order."""
    return [[e.u, e.v, e.c] for e in edges]


def to_dict(g: ColoredMultigraph) -> dict:
    """Canonical dict form: edges sorted lexicographically by (c, u, v)."""
    return {
        "n": g.n,
        "left": g.left_size,
        "right": g.right_size,
        "edges": edge_lists(canonical_edges(g.edges)),
    }


def from_dict(d: dict) -> ColoredMultigraph:
    """Parse the instance dict form; edge order in the input is preserved.

    Raises ValueError on malformed input (missing keys, wrong types).
    """
    if not isinstance(d, dict):
        raise ValueError(f"instance must be a JSON object, got {type(d).__name__}")
    try:
        n = d["n"]
        left = d["left"]
        right = d["right"]
        raw_edges = d["edges"]
    except KeyError as exc:
        raise ValueError(f"instance missing key {exc}") from exc
    # exact type checks: bool subclasses int
    if not all(type(x) is int for x in (n, left, right)):
        raise ValueError("instance fields n/left/right must be integers")
    if not isinstance(raw_edges, list):
        raise ValueError("instance field edges must be a list")
    for t in raw_edges:
        if type(t) is not list or len(t) != 3:
            raise ValueError(f"bad edge entry {t!r}: expected [u, v, c]")
        u, v, c = t
        if type(u) is not int or type(v) is not int or type(c) is not int:
            raise ValueError(f"bad edge entry {t!r}: expected [u, v, c]")
    return ColoredMultigraph(n, left, right, tuple(map(new_edge, raw_edges)))


# One compact encoder for every JSON line the package writes: the bytes of
# ``json.dumps(obj, separators=(",", ":"))``, which builds an encoder per call.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def to_canonical_json(g: ColoredMultigraph) -> str:
    """Single-line canonical serialization; bit-exact for golden tests.  The
    bytes of ``compact_json(to_dict(g))``, written by one ``%`` format over
    the canonical edges, with no list built per edge."""
    es = canonical_edges(g.edges)
    line = '{"n":%d,"left":%d,"right":%d,"edges":[' + ("[%d,%d,%d]," * len(es))[:-1] + "]}"
    return line % (g.n, g.left_size, g.right_size, *chain.from_iterable(es))


def from_json(text: str) -> ColoredMultigraph:
    return from_dict(json.loads(text))


def canonical_digest(g: ColoredMultigraph) -> str:
    """64-bit hex digest, invariant under edge-list reordering (not under
    vertex or color relabeling)."""
    return hashlib.sha256(to_canonical_json(g).encode()).hexdigest()[:16]


def json_lines(lines: Iterable[str], whole: bool = False) -> Iterator:
    """Yield the JSON value of each non-blank line, reading one line at a time;
    a line that is not JSON, or nests too deeply to decode, raises ValueError
    naming its 1-based number.  With ``whole``, a first line that is not JSON
    on its own begins one pretty-printed value spanning the rest of the
    stream."""
    lines = iter(lines)
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            error = ValueError(f"line {lineno}: not valid JSON: {exc}")
            if not whole:
                raise error from exc
            try:
                value = json.loads("\n".join([line, *lines]))
            except (json.JSONDecodeError, RecursionError):
                raise error from exc
        whole = False
        yield value


def read_instances(lines: Iterable[str]) -> Iterator[ColoredMultigraph]:
    """Parse a JSONL stream of instances lazily, or one pretty-printed instance."""
    return (from_dict(d) for d in json_lines(lines, whole=True))
