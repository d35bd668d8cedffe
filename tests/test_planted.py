"""Planted-overlap fixture generator tests."""

from __future__ import annotations

from itertools import combinations

import pytest

from pcslpa.planted import gen_planted_overlap


def test_chain_arithmetic_two_communities():
    g, truth = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=0)
    assert g.n == 17
    comms = [set(c) for c in truth.communities]
    assert comms == [set(range(0, 10)), set(range(7, 17))]
    assert comms[0] & comms[1] == {7, 8, 9}


def test_chain_arithmetic_four_communities():
    g, truth = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=0)
    assert g.n == 25 + 3 * (25 - 8) == 76
    assert len(truth.communities) == 4
    for a, b in zip(truth.communities, truth.communities[1:]):
        assert len(a & b) == 8
    assert truth.nodes() == set(range(76))


def test_extreme_probabilities_give_exact_clique_union():
    g, truth = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=5)
    # every intra pair is an edge, nothing else is
    intra = set()
    for comm in truth.communities:
        intra.update(frozenset(p) for p in combinations(sorted(comm), 2))
    assert g.m == len(intra) == 2 * 45 - 3
    assert {frozenset(e) for e in g.edges()} == intra


def test_zero_overlap_gives_disjoint_cliques():
    g, truth = gen_planted_overlap(2, 10, 0, 1.0, 0.0, seed=0)
    assert g.n == 20
    assert g.m == 90
    a, b = truth.communities
    assert not (a & b)


def test_same_seed_reproduces_same_graph():
    g1, _ = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=3)
    g2, _ = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=3)
    assert list(g1.edges()) == list(g2.edges())


def test_different_seeds_vary_random_edges():
    g1, _ = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=0)
    g2, _ = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=1)
    assert set(g1.edges()) != set(g2.edges())


def test_parameter_validation():
    with pytest.raises(ValueError):
        gen_planted_overlap(0, 10, 0, 1.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_planted_overlap(2, 10, 10, 1.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_planted_overlap(2, 10, 3, 0.5, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_planted_overlap(2, 10, 3, 1.0, -0.1, seed=0)
