"""The package's value types are immutable tuples: no field can be set, the
ones that cross the process pool survive a pickle round trip, and the
checked ones check their fields wherever they are made."""

from __future__ import annotations

import pickle

import pytest

from conftest import I2_EDGES
from rainbowmatch.construct import ConstructFailure, FailReason, construct
from rainbowmatch.generators import GenKind, GenSpec
from rainbowmatch.graph import ColoredMultigraph, Matching, Violation, validate
from rainbowmatch.harness import EvalOptions, Hypothesis, replay, run_campaign
from rainbowmatch.oracle import max_rainbow
from rainbowmatch.shifting import shift

G = ColoredMultigraph.of(2, 3, 3, I2_EDGES)
SPEC = GenSpec("random", 3, 6, 5, 5)
(SUMMARY,), (RECORD,) = run_campaign((Hypothesis.H2,), [SPEC])
SHIFTED = shift(G, 0, 1)

VALUES = {
    "ColoredMultigraph": G,
    "Matching": Matching.of([(0, 0, 0), (1, 2, 1)]),
    "Violation": validate(ColoredMultigraph.of(1, 1, 1, [(0, 5, 0)])).violations[0],
    "ValidationReport": validate(G),
    "GenSpec": SPEC,
    "EvalOptions": EvalOptions(max_iters=3),
    "CampaignRecord": RECORD,
    "CampaignSummary": SUMMARY,
    "ReplayReport": replay([]),
    "OracleResult": max_rainbow(G),
    "ShiftRewrite": SHIFTED.rewrites[0],
    "ShiftOutcome": SHIFTED,
    "ConstructFailure": ConstructFailure(1, FailReason.COUNT_DEFICIT, "0" * 16),
    "ConstructionOutcome": construct(G),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_no_field_can_be_set(name):
    value = VALUES[name]
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None  # no instance dict to hold it
    assert value == tuple(value)


@pytest.mark.parametrize("name", ["GenSpec", "EvalOptions", "CampaignRecord", "ColoredMultigraph"])
def test_pool_crossing_values_survive_pickling(name):
    value = VALUES[name]
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value)


def test_checked_values_are_checked_when_unpickled():
    # ``_make`` skips the check, as ``_replace`` does; unpickling runs it.
    for bad, message in (
        (GenSpec._make(("random", 0, 1, 1, 0, None)), "generation needs n >= 1"),
        (EvalOptions._make(("policy", "maxdrain", -1)), "max_iters must be non-negative"),
    ):
        data = pickle.dumps(bad)
        with pytest.raises(ValueError, match=message):
            pickle.loads(data)


def test_checked_values_convert_and_default():
    assert GenSpec("random", 3, 6, 5).kind is GenKind.RANDOM
    assert GenSpec("random", 3, 6, 5) == GenSpec(GenKind.RANDOM, 3, 6, 5, seed=0, drop=None)
    assert EvalOptions.from_dict({}) == EvalOptions()
    with pytest.raises(ValueError, match="sizes too small"):
        GenSpec("random", 3, 3, 5)


def test_a_matching_counts_its_edges():
    assert len(Matching.of([(0, 0, 0), (1, 2, 1), (2, 1, 2)])) == 3
    assert not Matching.of([])
