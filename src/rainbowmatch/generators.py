"""Instance generators: seeded random, Latin-square-derived, and exhaustive."""

from __future__ import annotations

import math
import random
from enum import Enum
from itertools import combinations, permutations, product, repeat
from typing import Iterator, NamedTuple

from .graph import ColoredMultigraph, Edge, new_edge

ENUMERATION_GUARD = 10**8


class GenKind(str, Enum):
    RANDOM = "random"
    LATIN = "latin"
    EXHAUSTIVE = "enumerate"


class _GenSpecFields(NamedTuple):
    kind: GenKind
    n: int
    left_size: int
    right_size: int
    seed: int
    drop: int | None  # latin only; None means the last symbol


class GenSpec(_GenSpecFields):
    """One generation request, checked where it is made, and again where a
    pool worker unpickles it: a color class of n + 1 edges is a matching, so
    a spec that exists yields an instance and the generators trust it."""

    __slots__ = ()

    def __new__(cls, kind: GenKind | str, n: int, left_size: int, right_size: int,
                seed: int = 0, drop: int | None = None) -> "GenSpec":
        self = super().__new__(cls, GenKind(kind), n, left_size, right_size, seed, drop)
        if n < 1:
            raise ValueError(f"generation needs n >= 1, got {n}")
        # random.Random seeds from abs(seed): -s would repeat seed s.
        if seed < 0:
            raise ValueError(f"generation needs seed >= 0, got {seed}")
        if left_size < n + 1 or right_size < n + 1:
            raise ValueError(f"sizes too small: need at least {n + 1} vertices per side, "
                             f"got {left_size}x{right_size}")
        if self.kind is GenKind.LATIN:
            if left_size != n + 1 or right_size != n + 1:
                raise ValueError(f"a latin spec with n = {n} needs {n + 1}x{n + 1} sides, "
                                 f"got {left_size}x{right_size}")
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
        return self

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
    for each color; deterministic in the seed.  Colors ascend and each
    class's lefts are sorted, so the edges come out in canonical (c, u, v)
    order with no sort."""
    n = spec.n
    rng = random.Random(spec.seed)
    edges: list[Edge] = []
    for c in range(n):
        lefts = sorted(rng.sample(range(spec.left_size), n + 1))
        rights = rng.sample(range(spec.right_size), n + 1)
        edges.extend(map(new_edge, zip(lefts, rights, repeat(c))))
    return ColoredMultigraph(n, spec.left_size, spec.right_size, tuple(edges))


def gen_latin(spec: GenSpec) -> ColoredMultigraph:
    """Seeded row/column/symbol shuffle of the cyclic Latin square of order
    n + 1, with one symbol dropped (the last unless ``spec.drop`` names
    one); always a normal-form instance with n colors.

    Cell (r, c) holds ``sym_perm[(row_perm[r] + col_perm[c]) % order]``, so
    the symbol at index k of ``sym_perm`` sits in row r at the column whose
    ``col_perm`` entry is ``(k - row_perm[r]) % order``.  Each color class is
    read off the inverse permutations, kept symbols ascending and rows in
    order: the edges come out in canonical (c, u, v) order, with no cell
    scan and no sort.
    """
    order = spec.n + 1
    drop_symbol = spec.n if spec.drop is None else spec.drop
    rng = random.Random(spec.seed)
    row_perm = rng.sample(range(order), order)
    col_perm = rng.sample(range(order), order)
    sym_perm = rng.sample(range(order), order)
    column = [0] * order
    for c, k in enumerate(col_perm):
        column[k] = c
    kept = (sym_perm.index(s) for s in range(order) if s != drop_symbol)
    return ColoredMultigraph(spec.n, order, order, tuple(
        new_edge((r, column[(k - q) % order], color))
        for color, k in enumerate(kept)
        for r, q in enumerate(row_perm)
    ))


def count_matchings(left_size: int, right_size: int, size: int) -> int:
    """Number of partial matchings of the given size in K_{left,right}."""
    return math.comb(left_size, size) * math.comb(right_size, size) * math.factorial(size)


def count_instances(n: int, left_size: int, right_size: int) -> int:
    return count_matchings(left_size, right_size, n + 1) ** n


def enumerate_instances(spec: GenSpec) -> Iterator[ColoredMultigraph]:
    """Stream every tuple of n color-class matchings of size n + 1, in
    lexicographic order over the per-color matchings.  Each matching pairs
    ascending lefts with rights, so every instance's edges are in canonical
    (c, u, v) order."""
    k = spec.n + 1
    matchings = [
        tuple(zip(lefts, rights))
        for lefts in combinations(range(spec.left_size), k)
        for rights in permutations(range(spec.right_size), k)
    ]
    for classes in product(matchings, repeat=spec.n):
        edges = tuple(
            new_edge((u, v, c)) for c, cls in enumerate(classes) for u, v in cls
        )
        yield ColoredMultigraph(spec.n, spec.left_size, spec.right_size, edges)


def instances_for(spec: GenSpec) -> Iterator[ColoredMultigraph]:
    """Materialize a spec: one instance for random/latin, a stream for
    exhaustive enumeration.  Every kind yields its edges in canonical
    (c, u, v) order, so ``graph.canonical_line`` writes them unsorted."""
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
