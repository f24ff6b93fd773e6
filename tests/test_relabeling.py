"""What an instance's labels may and may not change.

``relabel`` permutes an instance's lefts, rights and colors.  The exact
oracle cannot see labels, so neither its maximum nor CONJ moves, and H1's
``all`` mode shifts every ordered pair of left vertices, so its verdict
does not move either.  The reduction picks pivots and donors by index and
the search peels in index order, so H2 and H4 can flip.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded
from rainbowmatch.graph import ColoredMultigraph, validate
from rainbowmatch.harness import EvalOptions, H1Mode, Hypothesis, InstanceRun, Verdict, evaluate
from strategies import counts_valid_graphs

ALL_PAIRS = EvalOptions(h1_mode=H1Mode.ALL)


def relabel(g: ColoredMultigraph, seed: int) -> ColoredMultigraph:
    """``g`` with its lefts, rights and colors each permuted by one seeded
    shuffle; the edge order is kept."""
    rng = random.Random(seed)
    lp, rp, cp = (rng.sample(range(k), k) for k in (g.left_size, g.right_size, g.n))
    return ColoredMultigraph.of(
        g.n, g.left_size, g.right_size, [(lp[u], rp[v], cp[c]) for u, v, c in g.edges]
    )


def _label_blind(g: ColoredMultigraph) -> tuple:
    run = InstanceRun(g, ALL_PAIRS)
    return (
        run.max_size,
        evaluate(Hypothesis.CONJ, g, ALL_PAIRS, run)[0],
        evaluate(Hypothesis.H1, g, ALL_PAIRS, run)[0],
    )


def _verdict(hyp: Hypothesis, g: ColoredMultigraph) -> Verdict:
    return evaluate(hyp, g)[0]


@settings(max_examples=150, deadline=None)
@given(counts_valid_graphs(), st.integers(0, 10**6))
def test_the_maximum_conj_and_h1_all_do_not_see_labels(g, seed):
    h = relabel(g, seed)
    assert validate(h, require_counts=True).ok
    assert _label_blind(h) == _label_blind(g)


def test_h2_and_h4_see_labels():
    # One relabeling per instance, seeded by the instance's own seed, over
    # n=3 6x5 seeds 0-299: the maximum, CONJ and H1's all mode never move,
    # while the maxdrain reduction's H2 verdict flips on 63 instances and
    # the H4 search's on 121.
    flips = {Hypothesis.H2: 0, Hypothesis.H4: 0}
    for seed in range(300):
        g = seeded(3, 6, 5, seed)
        h = relabel(g, seed)
        assert _label_blind(h) == _label_blind(g), seed
        for hyp in flips:
            flips[hyp] += _verdict(hyp, g) is not _verdict(hyp, h)
    assert flips == {Hypothesis.H2: 63, Hypothesis.H4: 121}


def test_a_stalled_reduction_normalizes_under_a_relabeling(cycle_instance):
    assert _verdict(Hypothesis.H2, cycle_instance) is Verdict.VIOLATED
    assert _verdict(Hypothesis.H2, relabel(cycle_instance, 17)) is Verdict.HOLDS


def test_a_failed_search_lifts_under_a_relabeling(deficit_instance):
    assert _verdict(Hypothesis.H4, deficit_instance) is Verdict.VIOLATED
    assert _verdict(Hypothesis.H4, relabel(deficit_instance, 1)) is Verdict.HOLDS
