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
    """One generation request, checked where it is made: a color class of
    n + 1 edges is a matching, so a spec that exists yields an instance and
    the generators trust it."""

    kind: GenKind
    n: int
    left_size: int
    right_size: int
    seed: int = 0
    drop: int | None = None  # latin only; None means the last symbol

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", GenKind(self.kind))
        n, left, right = self.n, self.left_size, self.right_size
        if n < 1:
            raise ValueError(f"generation needs n >= 1, got {n}")
        if left < n + 1 or right < n + 1:
            raise ValueError(f"sizes too small: need at least {n + 1} vertices per side, "
                             f"got {left}x{right}")
        if self.kind is GenKind.LATIN:
            if left != n + 1 or right != n + 1:
                raise ValueError(f"a latin spec with n = {n} needs {n + 1}x{n + 1} sides, "
                                 f"got {left}x{right}")
            if self.drop is not None and self.drop not in range(n + 1):
                raise ValueError(f"drop symbol {self.drop} out of range for order {n + 1}")
        elif self.kind is GenKind.EXHAUSTIVE:
            # Every color has at least (n + 1)! matchings and (5!)^4 > 10^8,
            # so n >= 4 is refused before its count, which can be huge.
            if n >= 4:
                raise ValueError(f"enumeration with n = {n} exceeds guard {ENUMERATION_GUARD}")
            if self.size > ENUMERATION_GUARD:
                raise ValueError(f"enumeration of {self.size} instances exceeds guard "
                                 f"{ENUMERATION_GUARD}")

    @property
    def size(self) -> int:
        """The number of instances ``instances_for`` yields: one for a
        random or latin spec, every tuple of matchings for an enumeration."""
        if self.kind is GenKind.EXHAUSTIVE:
            return count_instances(self.n, self.left_size, self.right_size)
        return 1

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


def gen_random(spec: GenSpec) -> ColoredMultigraph:
    """Independently sample a uniform random partial matching of size n + 1
    for each color; deterministic in the seed."""
    n = spec.n
    rng = random.Random(spec.seed)
    edges: list[Edge] = []
    for c in range(n):
        lefts = sorted(rng.sample(range(spec.left_size), n + 1))
        rights = rng.sample(range(spec.right_size), n + 1)
        edges.extend(Edge(u, v, c) for u, v in zip(lefts, rights))
    return ColoredMultigraph(n, spec.left_size, spec.right_size, canonical_edges(edges))


def gen_latin(spec: GenSpec) -> ColoredMultigraph:
    """Seeded row/column/symbol shuffle of the cyclic Latin square of order
    n + 1, with one symbol dropped (the last unless ``spec.drop`` names
    one); always a normal-form instance with n colors."""
    order = spec.n + 1
    drop_symbol = spec.n if spec.drop is None else spec.drop
    rng = random.Random(spec.seed)
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
    return ColoredMultigraph(spec.n, order, order, canonical_edges(edges))


def count_matchings(left_size: int, right_size: int, size: int) -> int:
    """Number of partial matchings of the given size in K_{left,right}."""
    return math.comb(left_size, size) * math.comb(right_size, size) * math.factorial(size)


def count_instances(n: int, left_size: int, right_size: int) -> int:
    return count_matchings(left_size, right_size, n + 1) ** n


def enumerate_instances(spec: GenSpec) -> Iterator[ColoredMultigraph]:
    """Stream every tuple of n color-class matchings of size n + 1, in
    lexicographic order over the per-color matchings."""
    k = spec.n + 1
    matchings = [
        tuple(zip(lefts, rights))
        for lefts in combinations(range(spec.left_size), k)
        for rights in permutations(range(spec.right_size), k)
    ]
    for classes in product(matchings, repeat=spec.n):
        edges = tuple(
            Edge(u, v, c) for c, cls in enumerate(classes) for u, v in cls
        )
        yield ColoredMultigraph(spec.n, spec.left_size, spec.right_size, edges)


def instances_for(spec: GenSpec) -> Iterator[ColoredMultigraph]:
    """Materialize a spec: one instance for random/latin, a stream for
    exhaustive enumeration."""
    if spec.kind is GenKind.RANDOM:
        yield gen_random(spec)
    elif spec.kind is GenKind.LATIN:
        yield gen_latin(spec)
    else:
        yield from enumerate_instances(spec)


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
