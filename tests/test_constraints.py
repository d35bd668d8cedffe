"""Constraint store, oracle, budget, and selection tests.

Budget values below were frozen from an exact rational computation done
separately: floor(pct * n(n-1)/2) with pct read as a decimal literal. The
(0.7, 76) and (0.29, 225) cases are witnesses where binary-float
multiplication floors one below the true product.
"""

from __future__ import annotations

import io
import random

import pytest

from pcslpa.constraints import (
    Budget,
    ConstraintStore,
    GroundTruthOracle,
    Oracle,
    Relation,
    canonical_pair,
    find_forbidden_triads,
    load_constraints,
    select_constraints,
    write_constraints,
)
from pcslpa.graph import Cover, IdMap, ParseError, build_graph
from pcslpa.planted import gen_planted_overlap


class CountingOracle(Oracle):
    """Wraps another oracle and logs every queried pair."""

    def __init__(self, inner: Oracle):
        self.inner = inner
        self.queried: list[tuple[int, int]] = []

    def answer(self, u: int, v: int) -> Relation:
        self.queried.append(canonical_pair(u, v))
        return self.inner.answer(u, v)

    def covered_nodes(self):
        return self.inner.covered_nodes()


def test_canonical_pair_orders_and_rejects_loops():
    assert canonical_pair(5, 2) == (2, 5)
    assert canonical_pair(2, 5) == (2, 5)
    with pytest.raises(ValueError):
        canonical_pair(3, 3)


def test_store_tracks_pairs_and_queries():
    s = ConstraintStore()
    s.add_must_link(4, 1)
    s.add_cannot_link(2, 3)
    assert s.ml == {(1, 4)}
    assert s.cl == {(2, 3)}
    assert s.queries_used == 2
    assert len(s) == 2
    assert s.ml_partners(1) == {4}
    assert s.ml_partners(4) == {1}
    assert s.cl_partners(3) == {2}
    assert s.ml_partners(9) == set()


def test_store_rejects_duplicates_and_conflicts():
    s = ConstraintStore()
    s.add_must_link(0, 1)
    with pytest.raises(ValueError):
        s.add_must_link(1, 0)
    with pytest.raises(ValueError):
        s.add_cannot_link(0, 1)


def test_ground_truth_oracle_answers():
    truth = Cover([{1, 2, 3}, {3, 4, 5}])
    oracle = GroundTruthOracle(truth)
    assert oracle.answer(1, 2) is Relation.MUST_LINK
    assert oracle.answer(3, 4) is Relation.MUST_LINK
    assert oracle.answer(1, 4) is Relation.CANNOT_LINK
    assert oracle.answer(2, 5) is Relation.CANNOT_LINK
    assert oracle.covered_nodes() == frozenset({1, 2, 3, 4, 5})
    with pytest.raises(ValueError):
        oracle.answer(1, 9)
    with pytest.raises(ValueError):
        oracle.answer(2, 2)


def test_budget_floor_is_exact_in_decimal():
    assert Budget.from_fraction(0.01, 1000).max_queries == 4995
    # float floor would give 1994 and 7307 here
    assert Budget.from_fraction(0.7, 76).max_queries == 1995
    assert Budget.from_fraction(0.29, 225).max_queries == 7308
    assert Budget.from_fraction(1.0, 10).max_queries == 45
    assert Budget.from_fraction(0.0, 50).max_queries == 0
    assert Budget.from_fraction(0.05, 2).max_queries == 0


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget.from_fraction(1.5, 10)
    with pytest.raises(ValueError):
        Budget.from_fraction(0.1, -1)
    with pytest.raises(ValueError):
        Budget(pct=0.5, max_queries=-1)


def test_forbidden_triads_from_shared_must_link_hub():
    s = ConstraintStore()
    s.add_must_link(1, 2)
    s.add_must_link(1, 3)
    assert find_forbidden_triads(s) == [(2, 3)]
    s.add_cannot_link(2, 3)
    assert find_forbidden_triads(s) == []


def test_forbidden_triads_closed_triangle_is_quiet():
    s = ConstraintStore()
    s.add_must_link(0, 1)
    s.add_must_link(1, 2)
    s.add_must_link(0, 2)
    assert find_forbidden_triads(s) == []


def test_forbidden_triads_sorted_and_deduped():
    s = ConstraintStore()
    s.add_must_link(5, 1)
    s.add_must_link(5, 3)
    s.add_must_link(1, 3)  # closes (1,3); hub at 1 now opens nothing new
    s.add_must_link(1, 7)
    pairs = find_forbidden_triads(s)
    assert pairs == sorted(set(pairs))
    assert (3, 7) in pairs and (5, 7) in pairs


def _fixture():
    g, truth = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=0)
    return g, truth


def test_selection_respects_budget_exactly():
    g, truth = _fixture()
    oracle = CountingOracle(GroundTruthOracle(truth))
    budget = Budget.from_fraction(0.01, g.n)
    store = select_constraints(g, oracle, budget, rng=random.Random(5))
    assert budget.max_queries == 28  # floor(0.01 * 76*75/2)
    assert store.queries_used == len(oracle.queried) == len(store)
    assert store.queries_used <= budget.max_queries


def test_selection_never_repeats_a_query():
    g, truth = _fixture()
    oracle = CountingOracle(GroundTruthOracle(truth))
    store = select_constraints(g, oracle, Budget.from_fraction(0.05, g.n),
                               rng=random.Random(6))
    assert len(oracle.queried) == len(set(oracle.queried))
    assert store.ml.isdisjoint(store.cl)


def test_selection_answers_match_ground_truth():
    g, truth = _fixture()
    store = select_constraints(g, GroundTruthOracle(truth),
                               Budget.from_fraction(0.05, g.n),
                               rng=random.Random(7))
    for u, v in store.ml:
        assert set(truth.memberships(u)) & set(truth.memberships(v))
    for u, v in store.cl:
        assert not set(truth.memberships(u)) & set(truth.memberships(v))


def test_selection_closure_reached_when_budget_allows():
    # full budget exhausts the pair pool, so no open triads can remain
    g, truth = gen_planted_overlap(2, 6, 2, 1.0, 0.0, seed=1)
    oracle = CountingOracle(GroundTruthOracle(truth))
    budget = Budget.from_fraction(1.0, g.n)
    store = select_constraints(g, oracle, budget, rng=random.Random(8))
    total_pairs = g.n * (g.n - 1) // 2
    assert store.queries_used == total_pairs
    assert find_forbidden_triads(store) == []


def test_selection_stops_at_pool_exhaustion_below_budget():
    # 4 covered nodes -> 6 pairs, budget far larger
    truth = Cover([{0, 1}, {2, 3}])
    g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    store = select_constraints(g, GroundTruthOracle(truth),
                               Budget(pct=1.0, max_queries=1000),
                               rng=random.Random(9))
    assert store.queries_used == 6
    assert {p for p in store.ml} == {(0, 1), (2, 3)}
    # nodes outside the oracle's coverage are never queried
    touched = {v for pair in store.ml | store.cl for v in pair}
    assert touched <= {0, 1, 2, 3}


def test_selection_zero_budget_and_bad_fraction():
    g, truth = _fixture()
    store = select_constraints(g, GroundTruthOracle(truth),
                               Budget.from_fraction(0.0, g.n))
    assert len(store) == 0
    with pytest.raises(ValueError):
        select_constraints(g, GroundTruthOracle(truth),
                           Budget.from_fraction(0.05, g.n), init_fraction=0.0)


def test_selection_is_deterministic_under_seeded_rng():
    g, truth = _fixture()
    budget = Budget.from_fraction(0.05, g.n)
    a = select_constraints(g, GroundTruthOracle(truth), budget, rng=random.Random(42))
    b = select_constraints(g, GroundTruthOracle(truth), budget, rng=random.Random(42))
    assert a.ml == b.ml
    assert a.cl == b.cl


def test_constraint_file_round_trip():
    ids = IdMap()
    for tok in ("n0", "n1", "n2", "n3"):
        ids.intern(tok)
    s = ConstraintStore()
    s.add_must_link(0, 2)
    s.add_cannot_link(1, 3)
    s.add_must_link(0, 1)
    buf = io.StringIO()
    write_constraints(s, buf, ids)
    text = buf.getvalue()
    assert text.splitlines() == ["n0 n1 ML", "n0 n2 ML", "n1 n3 CL"]
    back = load_constraints(io.StringIO(text), ids)
    assert back.ml == s.ml
    assert back.cl == s.cl


def test_load_constraints_rejects_malformed_lines():
    ids = IdMap.identity(4)
    with pytest.raises(ParseError):
        load_constraints(io.StringIO("0 1\n"), ids)
    with pytest.raises(ParseError):
        load_constraints(io.StringIO("0 1 FRIEND\n"), ids)
    with pytest.raises(ParseError):
        load_constraints(io.StringIO("0 9 ML\n"), ids)
    ok = load_constraints(io.StringIO("# note\n\n0 1 CL\n"), ids)
    assert ok.cl == {(0, 1)}
