"""Instance generators: seeded random, Latin-square-derived, and exhaustive."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations, product
from typing import Iterator

from .graph import ColoredMultigraph, Edge, canonical_edges

ENUMERATION_GUARD = 10**8


class GenKind(str, Enum):
    RANDOM = "random"
    LATIN = "latin"
    EXHAUSTIVE = "enumerate"


@dataclass(frozen=True)
class GenSpec:
    """One generation request; a color class of size n + 1 needs n + 1
    distinct vertices per side, hence the size floor for random/latin."""

    kind: GenKind
    n: int
    left_size: int
    right_size: int
    seed: int = 0
    drop: int | None = None  # latin only; None means the last symbol

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind.value,
            "n": self.n,
            "left": self.left_size,
            "right": self.right_size,
            "seed": self.seed,
        }
        if self.drop is not None:
            d["drop"] = self.drop
        return d

    @staticmethod
    def from_dict(d: dict) -> "GenSpec":
        return GenSpec(
            kind=GenKind(d["kind"]),
            n=d["n"],
            left_size=d["left"],
            right_size=d["right"],
            seed=d.get("seed", 0),
            drop=d.get("drop"),
        )


def gen_random(spec: GenSpec) -> ColoredMultigraph:
    """Independently sample a uniform random partial matching of size n + 1
    for each color; deterministic in the seed."""
    n = spec.n
    if n < 1:
        raise ValueError("random generation needs n >= 1")
    if spec.left_size < n + 1 or spec.right_size < n + 1:
        raise ValueError(
            f"sizes too small: need at least {n + 1} vertices per side, "
            f"got {spec.left_size}x{spec.right_size}"
        )
    rng = random.Random(spec.seed)
    edges: list[Edge] = []
    for c in range(n):
        lefts = sorted(rng.sample(range(spec.left_size), n + 1))
        rights = rng.sample(range(spec.right_size), n + 1)
        edges.extend(Edge(u, v, c) for u, v in zip(lefts, rights))
    return ColoredMultigraph(n, spec.left_size, spec.right_size, canonical_edges(edges))


def gen_latin(order: int, drop_symbol: int, seed: int) -> ColoredMultigraph:
    """Seeded row/column/symbol shuffle of the cyclic Latin square of the
    given order, with one symbol dropped; always a normal-form instance with
    n = order - 1 colors."""
    if order < 2:
        raise ValueError("latin square order must be at least 2")
    if not 0 <= drop_symbol < order:
        raise ValueError(f"drop symbol {drop_symbol} out of range for order {order}")
    rng = random.Random(seed)
    row_perm = rng.sample(range(order), order)
    col_perm = rng.sample(range(order), order)
    sym_perm = rng.sample(range(order), order)
    edges: list[Edge] = []
    for r in range(order):
        for c in range(order):
            symbol = sym_perm[(row_perm[r] + col_perm[c]) % order]
            if symbol == drop_symbol:
                continue
            color = symbol if symbol < drop_symbol else symbol - 1
            edges.append(Edge(r, c, color))
    return ColoredMultigraph(order - 1, order, order, canonical_edges(edges))


def count_matchings(left_size: int, right_size: int, size: int) -> int:
    """Number of partial matchings of the given size in K_{left,right}."""
    if size > left_size or size > right_size:
        return 0
    return math.comb(left_size, size) * math.comb(right_size, size) * math.factorial(size)


def count_instances(n: int, left_size: int, right_size: int) -> int:
    return count_matchings(left_size, right_size, n + 1) ** n


def enumerate_instances(n: int, left_size: int, right_size: int) -> Iterator[ColoredMultigraph]:
    """Stream every tuple of n color-class matchings of size n + 1, in
    lexicographic order over the per-color matchings."""
    if n < 1:
        raise ValueError("enumeration needs n >= 1")
    if left_size < 0 or right_size < 0:
        raise ValueError(f"side sizes must be non-negative, got {left_size}x{right_size}")
    total = count_instances(n, left_size, right_size)
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration of {total} instances exceeds guard {ENUMERATION_GUARD}"
        )
    k = n + 1
    matchings = [
        tuple(zip(lefts, rights))
        for lefts in combinations(range(left_size), k)
        for rights in permutations(range(right_size), k)
    ]
    for classes in product(matchings, repeat=n):
        edges = tuple(
            Edge(u, v, c) for c, cls in enumerate(classes) for u, v in cls
        )
        yield ColoredMultigraph(n, left_size, right_size, edges)


def instances_for(spec: GenSpec) -> Iterator[ColoredMultigraph]:
    """Materialize a spec: one instance for random/latin, a stream for
    exhaustive enumeration."""
    if spec.kind is GenKind.RANDOM:
        yield gen_random(spec)
    elif spec.kind is GenKind.LATIN:
        order = spec.left_size
        drop = spec.drop if spec.drop is not None else order - 1
        yield gen_latin(order, drop, spec.seed)
    else:
        yield from enumerate_instances(spec.n, spec.left_size, spec.right_size)


def random_spec_stream(
    n: int, left_size: int, right_size: int, base_seed: int, count: int
) -> Iterator[GenSpec]:
    for i in range(count):
        yield GenSpec(GenKind.RANDOM, n, left_size, right_size, base_seed + i)


def latin_spec_stream(
    order: int, drop: int | None, base_seed: int, count: int
) -> Iterator[GenSpec]:
    n = order - 1
    for i in range(count):
        yield GenSpec(GenKind.LATIN, n, order, order, base_seed + i, drop=drop)
