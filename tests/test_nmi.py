"""Overlapping NMI tests.

The reference implementation below (`naive_overlapping_nmi`) is written
straight from the definition of the measure, with explicit set algebra and
no shared code with the package. It exists so the fast implementation can
be checked against an independent oracle; its outputs on small covers were
verified by hand before any comparison test was written.
`naive_nmi_max` is the same kind of oracle for NMI_max, and takes each
conditional entropy from the joint distribution directly.
"""

from __future__ import annotations

import math
import random

import pytest

from pcslpa.graph import Cover
from pcslpa.nmi import cover_stats, nmi_max, overlapping_nmi


def _h(p: float) -> float:
    # entropy contribution of one outcome, in bits
    if p <= 0.0:
        return 0.0
    return -p * math.log2(p)


def _membership_entropy(size: int, n: int) -> float:
    return _h(size / n) + _h((n - size) / n)


def naive_overlapping_nmi(x: list[set[int]], y: list[set[int]], universe: set[int]) -> float:
    """Straight-from-definition overlapping NMI between two covers.

    Every community is a binary membership variable over the universe. For
    each community on one side, the best admissible match on the other side
    gives the conditional entropy; candidates whose joint distribution fails
    the consistency condition are rejected, and a community with no
    admissible candidate is maximally penalised. Zero-entropy communities
    contribute a normalised term of 0.
    """
    n = len(universe)
    if n == 0:
        raise ValueError("universe must not be empty")
    xs = [c & universe for c in x]
    ys = [c & universe for c in y]
    if not xs or not ys:
        raise ValueError("need at least one community per side")

    def conditional_term(a: set[int], others: list[set[int]]) -> float:
        ha = _membership_entropy(len(a), n)
        if ha <= 0.0:
            # zero-entropy community: convention says its term vanishes,
            # admissible match or not
            return 0.0
        best = None
        for b in others:
            n11 = len(a & b)
            n10 = len(a - b)
            n01 = len(b - a)
            n00 = n - n11 - n10 - n01
            h11 = _h(n11 / n)
            h00 = _h(n00 / n)
            h10 = _h(n10 / n)
            h01 = _h(n01 / n)
            if h11 + h00 < h01 + h10:
                continue
            hb = _membership_entropy(len(b), n)
            cond = (h11 + h00 + h10 + h01) - hb
            if best is None or cond < best:
                best = cond
        if best is None:
            return 1.0
        return best / ha

    def side(first: list[set[int]], second: list[set[int]]) -> float:
        terms = [conditional_term(a, second) for a in first]
        return sum(terms) / len(terms)

    return 1.0 - 0.5 * (side(xs, ys) + side(ys, xs))


def naive_nmi_max(x: list[set[int]], y: list[set[int]], universe: set[int]) -> float:
    """Straight-from-definition NMI_max (McDaid, Greene & Hurley).

    A cover's entropy sums its communities' binary entropies. H(X|Y) sums,
    over X's communities, the least conditional entropy H(X_k|Y_l), computed
    from the 2x2 joint distribution as -sum p(a,b) log2 p(a,b)/p(b), among the
    admissible Y_l; a community with none keeps its own entropy. The mutual
    information is averaged over both directions and divided by the larger
    cover entropy; two covers without entropy score 1.
    """
    n = len(universe)
    xs = [c & universe for c in x]
    ys = [c & universe for c in y]

    def conditional(a: set[int], b: set[int]) -> float:
        cells = [(len(a & b), len(b)), (len(a - b), n - len(b)),
                 (len(b - a), len(b)), (n - len(a | b), n - len(b))]
        return sum(-(k / n) * math.log2(k / m) for k, m in cells if k)

    def given(first: list[set[int]], second: list[set[int]]) -> float:
        total = 0.0
        for a in first:
            best = _membership_entropy(len(a), n)
            for b in second:
                n11, n10, n01 = len(a & b), len(a - b), len(b - a)
                n00 = n - n11 - n10 - n01
                if _h(n11 / n) + _h(n00 / n) >= _h(n01 / n) + _h(n10 / n):
                    best = min(best, conditional(a, b))
            total += best
        return total

    hx = sum(_membership_entropy(len(c), n) for c in xs)
    hy = sum(_membership_entropy(len(c), n) for c in ys)
    if max(hx, hy) == 0.0:
        return 1.0
    return 0.5 * (hx - given(xs, ys) + hy - given(ys, xs)) / max(hx, hy)


def random_cover(rng: random.Random, nodes: list[int], max_comms: int) -> Cover:
    k = rng.randint(1, max_comms)
    comms = []
    for _ in range(k):
        size = rng.randint(1, len(nodes))
        comms.append(set(rng.sample(nodes, size)))
    # every node must belong somewhere for the cover to be well formed
    covered = set().union(*comms)
    missing = [v for v in nodes if v not in covered]
    if missing:
        comms[0].update(missing)
    return Cover(comms)


def as_sets(cover: Cover) -> list[set[int]]:
    return [set(c) for c in cover.communities]


# hand-derived: one side is {1,2},{3,4}, the other merges everything.
# The merged community has entropy zero over its own universe, so its
# normalised term vanishes while each split community pays exactly half
# its entropy; the measure comes out to 0.5 on the nose.
def test_frozen_merged_vs_split_is_half():
    x = Cover([{1, 2}, {3, 4}])
    y = Cover([{1, 2, 3, 4}])
    universe = {1, 2, 3, 4}
    assert naive_overlapping_nmi(as_sets(x), as_sets(y), universe) == pytest.approx(0.5, abs=1e-12)
    assert overlapping_nmi(x, y, universe) == pytest.approx(0.5, abs=1e-12)


def test_identical_covers_score_one():
    x = Cover([{1, 2, 3}, {3, 4, 5}])
    universe = {1, 2, 3, 4, 5}
    assert overlapping_nmi(x, x, universe) == pytest.approx(1.0, abs=1e-12)
    assert naive_overlapping_nmi(as_sets(x), as_sets(x), universe) == pytest.approx(1.0, abs=1e-12)


def test_matches_naive_on_random_covers():
    rng = random.Random(901)
    for _ in range(60):
        n = rng.randint(2, 30)
        nodes = list(range(n))
        universe = set(nodes)
        x = random_cover(rng, nodes, 6)
        y = random_cover(rng, nodes, 6)
        fast = overlapping_nmi(x, y, universe)
        slow = naive_overlapping_nmi(as_sets(x), as_sets(y), universe)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_symmetry_and_range():
    rng = random.Random(902)
    for _ in range(40):
        n = rng.randint(2, 25)
        nodes = list(range(n))
        universe = set(nodes)
        x = random_cover(rng, nodes, 5)
        y = random_cover(rng, nodes, 5)
        ab = overlapping_nmi(x, y, universe)
        ba = overlapping_nmi(y, x, universe)
        assert abs(ab - ba) <= 1e-12
        assert 0.0 <= ab <= 1.0


def test_invariant_under_node_relabelling():
    rng = random.Random(903)
    nodes = list(range(12))
    universe = set(nodes)
    x = random_cover(rng, nodes, 4)
    y = random_cover(rng, nodes, 4)
    before = overlapping_nmi(x, y, universe)
    perm = nodes[:]
    rng.shuffle(perm)
    remap = dict(zip(nodes, perm))
    xr = Cover([{remap[v] for v in comm} for comm in x.communities])
    yr = Cover([{remap[v] for v in comm} for comm in y.communities])
    after = overlapping_nmi(xr, yr, universe)
    assert after == pytest.approx(before, abs=1e-12)


def test_community_order_is_irrelevant():
    x = [{0, 1}, {2, 3, 4}, {4, 5}]
    y = [{0, 1, 2}, {3, 4, 5}]
    universe = set(range(6))
    a = overlapping_nmi(Cover(x), Cover(y), universe)
    b = overlapping_nmi(Cover(reversed(x)), Cover(reversed(y)), universe)
    assert a == pytest.approx(b, abs=1e-12)


def test_all_in_one_blob_scores_half_against_any_partition():
    # regression for the zero-entropy convention: a single community that
    # swallows the whole universe always lands on exactly 0.5
    universe = set(range(10))
    blob = Cover([set(universe)])
    split = Cover([{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}])
    assert overlapping_nmi(split, blob, universe) == pytest.approx(0.5, abs=1e-12)
    finer = Cover([{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}])
    assert overlapping_nmi(finer, blob, universe) == pytest.approx(0.5, abs=1e-12)
    singletons = Cover([{v} for v in universe])
    assert overlapping_nmi(singletons, blob, universe) == pytest.approx(0.5, abs=1e-12)


def test_inadmissible_candidates_are_skipped():
    # {0,1} against {0,2},{1,3}: both candidates fail the consistency
    # condition, so the left community pays its full term
    universe = {0, 1, 2, 3}
    x = [{0, 1}]
    y = [{0, 2}, {1, 3}]
    val = overlapping_nmi(Cover(x), Cover(y), universe)
    assert val == pytest.approx(naive_overlapping_nmi(x, y, universe), abs=1e-9)
    # and an admissible near-match is rewarded in both implementations
    x2 = [{0, 1}]
    y2 = [{0, 1, 2}]
    assert overlapping_nmi(Cover(x2), Cover(y2), universe) == pytest.approx(
        naive_overlapping_nmi(x2, y2, universe), abs=1e-9)


def test_rejects_empty_universe_and_empty_cover():
    with pytest.raises(ValueError):
        overlapping_nmi(Cover([{1}]), Cover([{1}]), set())
    with pytest.raises(ValueError):
        overlapping_nmi(Cover([]), Cover([{1}]), {1})
    with pytest.raises(ValueError):
        overlapping_nmi(Cover([{1}]), Cover([]), {1})


def test_nodes_outside_universe_are_ignored():
    x = Cover([{1, 2, 99}])
    y = Cover([{1, 2}])
    universe = {1, 2, 3}
    trimmed = overlapping_nmi(Cover([{1, 2}]), y, universe)
    assert overlapping_nmi(x, y, universe) == pytest.approx(trimmed, abs=1e-12)


def test_matches_naive_over_a_universe_smaller_than_the_covers():
    # random_cover covers every node, so both covers hold nodes outside the
    # universe, which the count of each pair of communities must skip
    rng = random.Random(903)
    for _ in range(60):
        n = rng.randint(2, 30)
        nodes = list(range(n))
        universe = set(rng.sample(nodes, rng.randint(1, n - 1)))
        x = random_cover(rng, nodes, 6)
        y = random_cover(rng, nodes, 6)
        fast = overlapping_nmi(x, y, universe)
        slow = naive_overlapping_nmi(as_sets(x), as_sets(y), universe)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_cover_stats_reports_overlap():
    stats = cover_stats(Cover([{1, 2, 3}, {3, 4, 5}]), n_total=5)
    assert stats.community_count == 2
    assert stats.min_size == 3
    assert stats.max_size == 3
    assert stats.overlapping_nodes == 1
    assert stats.overlapping_fraction == pytest.approx(1 / 5)


def test_cover_stats_disjoint_and_total_denominator():
    cover = Cover([{0, 1}, {2, 3, 4}])
    stats = cover_stats(cover, n_total=5)
    assert stats.overlapping_nodes == 0
    assert stats.overlapping_fraction == 0.0
    # the denominator is the graph's node count, covered or not
    overlapped = cover_stats(Cover([{0, 1}, {1, 2}]), n_total=10)
    assert overlapped.overlapping_fraction == pytest.approx(1 / 10)


def test_nmi_max_matches_naive_on_random_covers():
    rng = random.Random(904)
    for _ in range(200):
        n = rng.randint(2, 30)
        nodes = list(range(n))
        universe = set(nodes)
        x = random_cover(rng, nodes, 6)
        y = random_cover(rng, nodes, 6)
        fast = nmi_max(x, y, universe)
        assert fast == pytest.approx(naive_nmi_max(as_sets(x), as_sets(y), universe), abs=1e-9)
        assert fast == pytest.approx(nmi_max(y, x, universe), abs=1e-12)
        assert 0.0 <= fast <= 1.0
        assert nmi_max(x, x, universe) == pytest.approx(1.0, abs=1e-12)


def test_nmi_max_scores_the_all_in_one_cover_zero():
    rng = random.Random(905)
    universe = set(range(10))
    blob = Cover([set(universe)])
    assert nmi_max(blob, blob, universe) == 1.0
    for _ in range(20):
        other = random_cover(rng, sorted(universe), 5)
        if len(other) < 2:
            continue
        assert nmi_max(blob, other, universe) == pytest.approx(0.0, abs=1e-12)
        assert nmi_max(other, blob, universe) == pytest.approx(0.0, abs=1e-12)
    # where LFK scores the same blob at 0.5
    split = Cover([{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}])
    assert nmi_max(split, blob, universe) == 0.0
