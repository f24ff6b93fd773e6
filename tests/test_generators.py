from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import generators
from rainbowmatch.generators import (
    GenKind,
    GenSpec,
    count_instances,
    count_matchings,
    enumerate_instances,
    gen_latin,
    gen_random,
    instances_for,
    latin_spec_stream,
    random_spec_stream,
)
from rainbowmatch.graph import canonical_digest, validate
from reference import edges_by_color, is_normal_form


def test_spec_round_trip():
    spec = GenSpec(GenKind.RANDOM, 3, 5, 4, seed=11)
    assert GenSpec.from_dict(spec.to_dict()) == spec
    latin = GenSpec(GenKind.LATIN, 3, 4, 4, seed=2, drop=1)
    assert GenSpec.from_dict(latin.to_dict()) == latin


def test_gen_random_deterministic():
    spec = GenSpec(GenKind.RANDOM, 3, 5, 4, seed=7)
    a, b = gen_random(spec), gen_random(spec)
    assert a.edges == b.edges
    other = gen_random(GenSpec(GenKind.RANDOM, 3, 5, 4, seed=8))
    assert other.edges != a.edges


@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3), st.integers(0, 1000))
@settings(max_examples=150)
def test_gen_random_always_counts_valid(n, dl, dr, seed):
    g = gen_random(GenSpec(GenKind.RANDOM, n, n + 1 + dl, n + 1 + dr, seed))
    assert validate(g, require_counts=True).ok
    assert all(len(es) == n + 1 for es in edges_by_color(g).values())


@pytest.mark.parametrize(
    "kind, n, left, right, drop, match",
    [
        (kind, 0, 2, 2, None, "needs n >= 1")
        for kind in GenKind
    ] + [
        (kind, 3, left, right, None, "sizes too small")
        for kind in GenKind
        for left, right in [(3, 4), (4, 3), (-1, 4)]
    ] + [
        # Not an n = 4 Latin square under an n = 3 spec.
        (GenKind.LATIN, 3, 5, 5, None, "needs 4x4 sides"),
        (GenKind.LATIN, 3, 4, 5, None, "needs 4x4 sides"),
        (GenKind.LATIN, 3, 4, 4, -1, "out of range"),
        (GenKind.LATIN, 3, 4, 4, 4, "out of range"),
        (GenKind.EXHAUSTIVE, 4, 8, 8, None, "exceeds guard"),
    ],
)
def test_spec_guard_rejects_each_rule(kind, n, left, right, drop, match):
    with pytest.raises(ValueError, match=match):
        GenSpec(kind, n, left, right, drop=drop)


def test_gen_random_rejects_small_sides():
    with pytest.raises(ValueError, match="sizes too small"):
        gen_random(GenSpec(GenKind.RANDOM, 3, 3, 4, seed=0))
    with pytest.raises(ValueError, match="needs n >= 1"):
        gen_random(GenSpec(GenKind.RANDOM, 0, 2, 2, seed=0))


def test_spec_guard_accepts_the_smallest_spec_of_each_kind():
    for kind in GenKind:
        assert len(list(instances_for(GenSpec(kind, 1, 2, 2)))) >= 1
    assert GenSpec(GenKind.LATIN, 3, 4, 4, drop=0).drop == 0
    assert GenSpec(GenKind.LATIN, 3, 4, 4, drop=3).drop == 3


def test_gen_latin_shape_and_validity():
    g = gen_latin(GenSpec(GenKind.LATIN, 3, 4, 4))
    assert g.n == 3 and g.left_size == 4 and g.right_size == 4
    assert validate(g, require_counts=True).ok
    assert is_normal_form(g)
    # simple graph: no parallel edges at all
    assert len({(e.u, e.v) for e in g.edges}) == len(g.edges)


def test_gen_latin_drop_symbol_varies():
    a = gen_latin(GenSpec(GenKind.LATIN, 3, 4, 4, 5, drop=0))
    b = gen_latin(GenSpec(GenKind.LATIN, 3, 4, 4, 5, drop=3))
    assert a.n == b.n == 3
    assert a.edges != b.edges


def test_gen_latin_deterministic():
    spec = GenSpec(GenKind.LATIN, 4, 5, 5, 9, drop=2)
    assert gen_latin(spec).edges == gen_latin(spec).edges


def test_count_formulas():
    assert count_matchings(3, 3, 3) == 6
    assert count_instances(2, 3, 3) == 36
    assert count_instances(1, 2, 2) == 2
    assert count_matchings(4, 3, 3) == 24
    # Too few vertices on one side for a matching of that size.
    assert count_matchings(2, 3, 3) == 0
    assert count_matchings(3, 2, 3) == 0
    assert count_instances(2, 3, 2) == 0


def test_enumeration_full():
    insts = list(enumerate_instances(GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)))
    assert len(insts) == 36
    digests = {canonical_digest(g) for g in insts}
    assert len(digests) == 36
    for g in insts:
        assert validate(g, require_counts=True).ok


def test_enumeration_guard():
    with pytest.raises(ValueError, match="exceeds guard"):
        GenSpec(GenKind.EXHAUSTIVE, 4, 8, 8)


def test_enumeration_guard_refuses_n_4_without_counting(monkeypatch):
    # (n + 1)!^n instances at the least, already past the guard at n = 4; at
    # n = 300 the exact count has too many digits to print.
    def counting(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(generators, "count_instances", counting)
    for n in (4, 300):
        with pytest.raises(ValueError, match=f"enumeration with n = {n} exceeds guard"):
            GenSpec(GenKind.EXHAUSTIVE, n, n + 1, n + 1)


def test_spec_coerces_a_plain_string_kind():
    # Not an enumeration of 13824 instances with neither kind's rules.
    latin = GenSpec("latin", 3, 4, 4)
    assert latin.kind is GenKind.LATIN and latin == GenSpec(GenKind.LATIN, 3, 4, 4)
    assert list(instances_for(latin)) == [gen_latin(latin)]
    with pytest.raises(ValueError, match="needs 4x4 sides"):
        GenSpec("latin", 3, 5, 5)
    with pytest.raises(ValueError, match="exceeds guard"):
        GenSpec("enumerate", 4, 8, 8)
    with pytest.raises(ValueError, match="not a valid GenKind"):
        GenSpec("square", 3, 4, 4)


@pytest.mark.parametrize("left, right", [(-1, 3), (3, -1), (2, 3)])
def test_enumeration_rejects_a_negative_side(left, right):
    # Not an empty enumeration: a random spec of these sizes is refused too,
    # and so are sides with no room for a color class of n + 1 edges.
    with pytest.raises(ValueError, match="sizes too small: need at least 3 vertices per side"):
        GenSpec(GenKind.EXHAUSTIVE, 2, left, right)


def test_instances_for_dispatch():
    rnd = list(instances_for(GenSpec(GenKind.RANDOM, 2, 3, 3, seed=1)))
    assert len(rnd) == 1
    lat = list(instances_for(GenSpec(GenKind.LATIN, 3, 4, 4, seed=1)))
    assert len(lat) == 1 and lat[0].n == 3
    full = list(instances_for(GenSpec(GenKind.EXHAUSTIVE, 2, 3, 3)))
    assert len(full) == 36


def test_spec_streams():
    rs = list(random_spec_stream(3, 4, 4, 100, 5))
    assert [s.seed for s in rs] == [100, 101, 102, 103, 104]
    ls = list(latin_spec_stream(4, None, 0, 3))
    assert all(s.kind is GenKind.LATIN and s.n == 3 for s in ls)
    assert [s.seed for s in ls] == [0, 1, 2]
