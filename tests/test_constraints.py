"""Constraint store, oracle, budget, and selection tests.

Query budgets below were frozen from an exact rational computation done
separately: floor(pct * n(n-1)/2) with pct read as a decimal literal. The
(0.7, 76) and (0.29, 225) cases are witnesses where binary-float
multiplication floors one below the true product.
"""

from __future__ import annotations

import gc
import io
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcslpa.constraints import (
    ConstraintStore,
    GroundTruthOracle,
    Oracle,
    Relation,
    _sample_unqueried_pairs,
    budget_queries,
    canonical_pair,
    find_forbidden_triads,
    load_constraints,
    select_constraints,
    write_constraints,
)
from pcslpa.graph import (
    Cover,
    IdMap,
    ParseError,
    build_graph,
    load_cover,
    load_edge_list,
    write_cover,
    write_edge_list,
)
from pcslpa import constrained
from pcslpa.constrained import run_pcslpa_report
from pcslpa.harness import mix_seed
from pcslpa.planted import gen_planted_overlap
from pcslpa.slpa import SlpaParams


class CountingOracle(Oracle):
    """Wraps another oracle's answers and logs each pair as it is read."""

    def __init__(self, inner: Oracle):
        self.inner = inner
        self.queried: list[tuple[int, int]] = []

    def answers(self, pairs):
        return self.inner.answers(self._logged(pairs))

    def _logged(self, pairs):
        for pair in pairs:
            self.queried.append(pair)
            yield pair

    def covered_nodes(self):
        return self.inner.covered_nodes()


def reference_forbidden_triads(store: ConstraintStore) -> list[tuple[int, int]]:
    """Open pairs by a full scan of every must-link hub's partner pairs."""
    ml, cl = store.ml, store.cl
    hubs: dict[int, set[int]] = {}
    for u, v in ml:
        hubs.setdefault(u, set()).add(v)
        hubs.setdefault(v, set()).add(u)
    open_pairs: set[tuple[int, int]] = set()
    for partners in hubs.values():
        ps = sorted(partners)
        for i, b in enumerate(ps):
            for c in ps[i + 1:]:
                pair = (b, c)
                if pair not in ml and pair not in cl:
                    open_pairs.add(pair)
    return sorted(open_pairs)


def reference_sample_unqueried_pairs(eligible, count, queried, rng) -> list[tuple[int, int]]:
    """The sampler by rng.randrange, whose random stream _sample_unqueried_pairs
    reproduces. It needs only `in` and `len` of queried."""
    n = len(eligible)
    total = n * (n - 1) // 2
    remaining = total - len(queried)
    count = min(count, remaining)
    if count <= 0:
        return []
    if count * 2 >= remaining:
        pool = [(eligible[i], eligible[j])
                for i in range(n) for j in range(i + 1, n)
                if (eligible[i], eligible[j]) not in queried]
        return rng.sample(pool, count)
    picked: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(picked) < count:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        pair = canonical_pair(eligible[i], eligible[j])
        if pair in queried or pair in seen:
            continue
        seen.add(pair)
        picked.append(pair)
    return picked


def reference_select(g, oracle, max_q, rng) -> ConstraintStore:
    """The selection loop with its own ledger of asked pairs, sampling with
    the randrange sampler, querying one pair at a time and closing triads
    found by the full scan: a snapshot per round, as select_constraints does."""
    store = ConstraintStore()
    covered = oracle.covered_nodes()
    eligible = sorted(v for v in covered if 0 <= v < g.n)
    if max_q == 0 or len(eligible) < 2:
        return store
    total_pairs = len(eligible) * (len(eligible) - 1) // 2
    chunk = max(1, max_q // 2)
    queried: set[tuple[int, int]] = set()

    def query(pair):
        store.add(*pair, next(oracle.answers([pair])))
        queried.add(pair)

    while store.queries_used < max_q and len(queried) < total_pairs:
        for pair in reference_sample_unqueried_pairs(eligible, min(chunk, max_q - store.queries_used),
                                                     queried, rng):
            query(pair)
        while store.queries_used < max_q:
            open_triads = reference_forbidden_triads(store)
            if not open_triads:
                break
            for pair in open_triads:
                if store.queries_used >= max_q:
                    break
                query(pair)
    return store


def test_canonical_pair_orders_and_rejects_loops():
    assert canonical_pair(5, 2) == (2, 5)
    assert canonical_pair(2, 5) == (2, 5)
    with pytest.raises(ValueError):
        canonical_pair(3, 3)


def test_store_tracks_pairs_and_queries():
    s = ConstraintStore()
    s.add(4, 1, Relation.MUST_LINK)
    s.add(2, 3, Relation.CANNOT_LINK)
    assert s.ml == {(1, 4)}
    assert s.cl == {(2, 3)}
    assert s.queries_used == 2
    assert s.partners == {Relation.MUST_LINK: {1: {4}, 4: {1}},
                          Relation.CANNOT_LINK: {2: {3}, 3: {2}}}


def test_pair_sets_are_copies_of_the_partner_index():
    s = ConstraintStore()
    s.add(0, 1, Relation.MUST_LINK)
    s.add(1, 2, Relation.CANNOT_LINK)
    ml, cl = s.ml, s.cl
    ml.add((5, 6))
    ml.discard((0, 1))
    cl.clear()
    assert s.ml == {(0, 1)} and s.cl == {(1, 2)}
    assert s.partners == {Relation.MUST_LINK: {0: {1}, 1: {0}},
                          Relation.CANNOT_LINK: {1: {2}, 2: {1}}}


def test_store_repr_counts_the_pairs_without_building_them(monkeypatch):
    s = ConstraintStore()
    assert repr(s) == "ConstraintStore(ml=0, cl=0, queries=0)"
    s.add(0, 1, Relation.MUST_LINK)
    s.add(2, 0, Relation.MUST_LINK)
    s.add(1, 2, Relation.CANNOT_LINK)

    def no_pair_sets(self, relation):
        raise AssertionError("repr built a pair set")

    monkeypatch.setattr(ConstraintStore, "_pairs", no_pair_sets)
    assert repr(s) == "ConstraintStore(ml=2, cl=1, queries=3)"


def test_store_rejects_duplicates_and_conflicts():
    s = ConstraintStore()
    s.add(0, 1, Relation.MUST_LINK)
    with pytest.raises(ValueError):
        s.add(1, 0, Relation.MUST_LINK)
    with pytest.raises(ValueError):
        s.add(0, 1, Relation.CANNOT_LINK)
    with pytest.raises(ValueError, match="not canonical"):
        s.add_pairs([(3, 2)], [Relation.MUST_LINK])
    assert s.queries_used == 1 and 3 not in s.partners[Relation.MUST_LINK]


def test_ground_truth_oracle_answers():
    truth = Cover([{1, 2, 3}, {3, 4, 5}])
    oracle = GroundTruthOracle(truth)
    assert list(oracle.answers([(1, 2), (3, 4), (1, 4), (2, 5)])) == [
        Relation.MUST_LINK, Relation.MUST_LINK, Relation.CANNOT_LINK, Relation.CANNOT_LINK]
    assert oracle.covered_nodes() == frozenset({1, 2, 3, 4, 5})


def test_ground_truth_oracle_answers_a_round_by_shared_truth_communities():
    g, truth = _fixture()
    oracle = GroundTruthOracle(truth)
    nodes = sorted(oracle.covered_nodes())
    rng = random.Random(11)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(500)]
    want = [Relation.MUST_LINK if set(truth.memberships(u)) & set(truth.memberships(v))
            else Relation.CANNOT_LINK for u, v in pairs]
    assert list(oracle.answers(pairs)) == want
    assert Relation.MUST_LINK in want and Relation.CANNOT_LINK in want
    assert list(oracle.answers([])) == []


@pytest.mark.parametrize("bad, message", [
    ((2, 2), "oracle queries require two distinct nodes"),
    ((9, 9), "oracle queries require two distinct nodes"),
    ((1, 9), "node 9 belongs to no ground-truth community"),
    ((9, 1), "node 9 belongs to no ground-truth community"),
    ((8, 9), "node 8 belongs to no ground-truth community"),
], ids=["2-2", "9-9", "1-9", "9-1", "8-9"])
def test_ground_truth_oracle_rejects_a_bad_query_when_it_is_read(bad, message):
    # equal nodes are reported first, then an uncovered u, then v
    oracle = GroundTruthOracle(Cover([{1, 2, 3}, {3, 4, 5}]))
    relations = oracle.answers([(1, 2), bad, (3, 4)])
    assert next(relations) is Relation.MUST_LINK
    with pytest.raises(ValueError) as got:
        next(relations)
    assert str(got.value) == message
    # stored through a round, the pairs before the bad one stay stored
    store = ConstraintStore()
    round_pairs = [(1, 2), (1, 9), (3, 4)]
    with pytest.raises(ValueError, match="node 9 belongs to no ground-truth community"):
        store.add_pairs(round_pairs, oracle.answers(round_pairs))
    assert store.queries_used == 1 and store.ml == {(1, 2)} and store.cl == set()


def test_a_counting_oracle_logs_each_pair_once_in_order_as_it_is_read():
    oracle = CountingOracle(GroundTruthOracle(Cover([{1, 2, 3}, {3, 4, 5}])))
    pairs = [(1, 2), (2, 5), (3, 4), (1, 4)]
    relations = oracle.answers(pairs)
    assert oracle.queried == []
    assert next(relations) is Relation.MUST_LINK
    assert oracle.queried == pairs[:1]
    assert list(relations) == [Relation.CANNOT_LINK, Relation.MUST_LINK, Relation.CANNOT_LINK]
    assert oracle.queried == pairs


def test_budget_floor_is_exact_in_decimal():
    assert budget_queries(0.01, 1000) == 4995
    # float floor would give 1994 and 7307 here
    assert budget_queries(0.7, 76) == 1995
    assert budget_queries(0.29, 225) == 7308
    assert budget_queries(1.0, 10) == 45
    assert budget_queries(0.0, 50) == 0
    assert budget_queries(0.05, 2) == 0


def test_budget_validation():
    with pytest.raises(ValueError):
        budget_queries(1.5, 10)
    with pytest.raises(ValueError):
        budget_queries(0.1, -1)
    g, truth = _fixture()
    with pytest.raises(ValueError):
        select_constraints(g, GroundTruthOracle(truth), -1, rng=random.Random(0))


def test_forbidden_triads_from_shared_must_link_hub():
    s = ConstraintStore()
    s.add(1, 2, Relation.MUST_LINK)
    s.add(1, 3, Relation.MUST_LINK)
    assert find_forbidden_triads(s, s.ml) == [(2, 3)]
    s.add(2, 3, Relation.CANNOT_LINK)
    assert find_forbidden_triads(s, s.ml) == []


def test_forbidden_triads_closed_triangle_is_quiet():
    s = ConstraintStore()
    s.add(0, 1, Relation.MUST_LINK)
    s.add(1, 2, Relation.MUST_LINK)
    s.add(0, 2, Relation.MUST_LINK)
    assert find_forbidden_triads(s, s.ml) == []


def test_forbidden_triads_sorted_and_deduped():
    s = ConstraintStore()
    s.add(5, 1, Relation.MUST_LINK)
    s.add(5, 3, Relation.MUST_LINK)
    s.add(1, 3, Relation.MUST_LINK)  # closes (1,3); hub at 1 now opens nothing new
    s.add(1, 7, Relation.MUST_LINK)
    pairs = find_forbidden_triads(s, s.ml)
    assert pairs == sorted(set(pairs))
    assert (3, 7) in pairs and (5, 7) in pairs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_open_pairs_match_a_full_scan_after_every_add(data):
    # half the steps close a currently open pair, so must-links close
    # triangles and cannot-links settle open triads
    n = data.draw(st.integers(3, 10))
    pairs = list(itertools.combinations(range(n), 2))
    s = ConstraintStore()
    for _ in range(data.draw(st.integers(1, 30))):
        stored = s.ml | s.cl
        free = [p for p in pairs if p not in stored]
        if not free:
            break
        open_now = reference_forbidden_triads(s)
        u, v = data.draw(st.sampled_from(open_now if open_now and data.draw(st.booleans()) else free))
        if data.draw(st.booleans()):
            u, v = v, u
        s.add(u, v, data.draw(st.sampled_from(Relation)))
        assert find_forbidden_triads(s, s.ml) == reference_forbidden_triads(s)


def reference_opened_pairs(store: ConstraintStore, links) -> list[tuple[int, int]]:
    """The pairs that links open, by the contract written out over all node
    pairs: (x,y) unstored, with (x,h) in links and (h,y) a must-link."""
    ml = store.ml
    stored = ml | store.cl
    nodes = {v for pair in stored for v in pair}
    ends = {(x, h) for a, b in links for x, h in ((a, b), (b, a))}
    return [(x, y) for x, y in itertools.combinations(sorted(nodes), 2)
            if (x, y) not in stored
            and any((x, h) in ends and canonical_pair(h, y) in ml
                    or (y, h) in ends and canonical_pair(h, x) in ml
                    for h in nodes - {x, y})]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_open_pairs_of_some_must_links_match_the_contract(data):
    # any store, and any subset of its must-links in any order
    n = data.draw(st.integers(3, 12))
    pairs = list(itertools.combinations(range(n), 2))
    s = ConstraintStore()
    for pair in data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True)):
        s.add(*pair, data.draw(st.sampled_from(Relation)))
    links = data.draw(st.lists(st.sampled_from(sorted(s.ml)), unique=True) if s.ml else st.just([]))
    want = reference_opened_pairs(s, links)
    assert find_forbidden_triads(s, links) == want
    limit = data.draw(st.integers(0, len(want) + 1))
    assert find_forbidden_triads(s, links, limit) == want[:limit]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_limited_round_is_the_head_of_the_sorted_open_pairs(data):
    # must-links on few nodes give many open pairs sharing a low end
    n = data.draw(st.integers(3, 14))
    s = ConstraintStore()
    for u, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=30)):
        if u != v and canonical_pair(u, v) not in s.ml | s.cl:
            s.add(u, v, data.draw(st.sampled_from(Relation)))
    want = reference_forbidden_triads(s)
    for limit in {0, 1, len(want) // 2, max(len(want) - 1, 0), len(want), len(want) + 1,
                  data.draw(st.integers(0, len(want) + 1))}:
        assert find_forbidden_triads(s, s.ml, limit) == want[:limit]
    assert find_forbidden_triads(s, s.ml, None) == want


def store_state(s: ConstraintStore):
    """Everything a store holds, with the partner dicts' key order and each
    partner set's iteration order, which PartnerTops follows."""
    return (s.ml, s.cl, s.queries_used,
            [(v, list(ps)) for v, ps in s.partners[Relation.MUST_LINK].items()],
            [(v, list(ps)) for v, ps in s.partners[Relation.CANNOT_LINK].items()])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_insertion_equals_one_add_per_pair(data):
    # rounds of fresh pairs in random order, each round possibly ending on a
    # pair stored earlier with the same or the opposite relation
    n = data.draw(st.integers(2, 8))
    fresh = data.draw(st.permutations(list(itertools.combinations(range(n), 2))))
    batched, single = ConstraintStore(), ConstraintStore()
    while fresh:
        size = data.draw(st.integers(1, len(fresh)))
        pairs, fresh = fresh[:size], fresh[size:]
        relations = [data.draw(st.sampled_from(Relation)) for _ in pairs]
        stored = sorted(single.ml | single.cl) + pairs[:-1]
        if stored and data.draw(st.booleans()):
            pairs = pairs + [data.draw(st.sampled_from(stored))]
            relations = relations + [data.draw(st.sampled_from(Relation))]
        errors = []
        try:
            links = batched.add_pairs(pairs, relations)
            assert links == [p for p, r in zip(pairs, relations) if r is Relation.MUST_LINK]
        except ValueError as e:
            errors.append(str(e))
        for (u, v), relation in zip(pairs, relations):
            try:
                single.add(*((v, u) if data.draw(st.booleans()) else (u, v)), relation)
            except ValueError as e:
                errors.append(str(e))
                break
        assert len(errors) in (0, 2) and errors[:1] == errors[1:]
        assert store_state(batched) == store_state(single)


@pytest.mark.parametrize("n", [2, 3, 16, 17, 64, 65])
@pytest.mark.parametrize("stored_frac, count_frac", [(0.0, 0.02), (0.3, 0.1), (0.0, 0.6), (0.4, 1.0)])
def test_sampler_draws_the_reference_pairs_from_the_same_stream(n, stored_frac, count_frac):
    # n = 2, powers of two and one above: the rejection loop's edge cases;
    # count_frac 0.6 and 1.0 take the dense branch
    eligible = [3 * v + 1 for v in range(n)]
    pairs = list(itertools.combinations(eligible, 2))
    setup = random.Random(n)
    store = ConstraintStore()
    for pair in setup.sample(pairs, int(stored_frac * len(pairs))):
        store.add(*pair, setup.choice(list(Relation)))
    count = max(1, int(count_frac * len(pairs)))
    for seed in range(3):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = _sample_unqueried_pairs(eligible, count, store, got_rng)
        want = reference_sample_unqueried_pairs(eligible, count, store.ml | store.cl, want_rng)
        assert got == want
        assert got_rng.getstate() == want_rng.getstate()


def _fixture():
    g, truth = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=0)
    return g, truth


def test_a_dense_draw_is_random_sample_written_out():
    # every pool of 1 to 200 leftover pairs, and every count of at least half
    # of it: the pool branch of random.sample, on one stream per pool
    for size in range(1, 201):
        n = 2
        while n * (n - 1) // 2 < size:
            n += 1
        eligible = [3 * v + 1 for v in range(n)]
        pairs = list(itertools.combinations(eligible, 2))
        setup = random.Random(size)
        store = ConstraintStore()
        for pair in setup.sample(pairs, len(pairs) - size):
            store.add(*pair, setup.choice(list(Relation)))
        stored = store.ml | store.cl
        pool = [pair for pair in pairs if pair not in stored]
        got_rng, want_rng = random.Random(size), random.Random(size)
        for count in range((size + 1) // 2, size + 1):
            assert _sample_unqueried_pairs(eligible, count, store, got_rng) == want_rng.sample(pool, count)
            assert got_rng.getstate() == want_rng.getstate()


def test_selection_respects_budget_exactly():
    g, truth = _fixture()
    oracle = CountingOracle(GroundTruthOracle(truth))
    budget = budget_queries(0.01, g.n)
    store = select_constraints(g, oracle, budget, rng=random.Random(5))
    assert budget == 28  # floor(0.01 * 76*75/2)
    assert store.queries_used == len(oracle.queried) == len(store.ml | store.cl)
    assert store.queries_used <= budget


def test_selection_never_repeats_a_query():
    g, truth = _fixture()
    oracle = CountingOracle(GroundTruthOracle(truth))
    store = select_constraints(g, oracle, budget_queries(0.05, g.n),
                               rng=random.Random(6))
    assert len(oracle.queried) == len(set(oracle.queried))
    assert store.ml.isdisjoint(store.cl)


def test_selection_answers_match_ground_truth():
    g, truth = _fixture()
    store = select_constraints(g, GroundTruthOracle(truth),
                               budget_queries(0.05, g.n),
                               rng=random.Random(7))
    for u, v in store.ml:
        assert set(truth.memberships(u)) & set(truth.memberships(v))
    for u, v in store.cl:
        assert not set(truth.memberships(u)) & set(truth.memberships(v))


def test_selection_closure_reached_when_budget_allows():
    # full budget exhausts the pair pool, so no open triads can remain
    g, truth = gen_planted_overlap(2, 6, 2, 1.0, 0.0, seed=1)
    oracle = CountingOracle(GroundTruthOracle(truth))
    budget = budget_queries(1.0, g.n)
    store = select_constraints(g, oracle, budget, rng=random.Random(8))
    total_pairs = g.n * (g.n - 1) // 2
    assert store.queries_used == total_pairs
    assert find_forbidden_triads(store, store.ml) == []


def test_selection_stops_at_pool_exhaustion_below_budget():
    # 4 covered nodes -> 6 pairs, budget far larger
    truth = Cover([{0, 1}, {2, 3}])
    g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    store = select_constraints(g, GroundTruthOracle(truth),
                               1000,
                               rng=random.Random(9))
    assert store.queries_used == 6
    assert {p for p in store.ml} == {(0, 1), (2, 3)}
    # every covered pair is asked; nodes outside the coverage never are
    assert store.ml | store.cl == set(itertools.combinations(range(4), 2))


@pytest.mark.parametrize("pct", [0.01, 0.05, 1.0])
def test_selection_matches_the_full_scan_reference(pct):
    g, truth = _fixture()
    budget = budget_queries(pct, g.n)
    for seed in range(5):
        got_oracle = CountingOracle(GroundTruthOracle(truth))
        want_oracle = CountingOracle(GroundTruthOracle(truth))
        got = select_constraints(g, got_oracle, budget, random.Random(seed))
        want = reference_select(g, want_oracle, budget, random.Random(seed))
        assert got.ml == want.ml
        assert got.cl == want.cl
        assert got_oracle.queried == want_oracle.queried
        assert got.queries_used == budget


# The 1% selection below peaks near 4 MB under tracemalloc; listing the
# 1,295,245 covered pairs alone would take about 80 MB.
PEAK_BOUND = 16_000_000


def test_selection_on_a_large_sparse_graph_with_small_truth():
    # 100,000 nodes; truth is a chain of 40 communities of 50 (overlap 10)
    # over 1,610 scattered nodes, so the budget counts only their pairs
    n = 100_000
    rng = random.Random(3)
    g = build_graph(n, [(v, (v + 1) % n) for v in range(n)]
                    + [(rng.randrange(n), rng.randrange(n)) for _ in range(n)])
    nodes = sorted(rng.sample(range(n), 1610))
    truth = Cover([nodes[i * 40:i * 40 + 50] for i in range(40)])
    oracle = CountingOracle(GroundTruthOracle(truth))
    budget = budget_queries(0.01, 1610)
    tracemalloc.start()
    try:
        store = select_constraints(g, oracle, budget, rng=random.Random(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert budget == 1610 * 1609 // 2 // 100 == 12952
    assert store.queries_used == len(oracle.queried) == len(store.ml | store.cl) == 12952
    assert {v for pair in oracle.queried for v in pair} <= set(nodes)
    assert peak < PEAK_BOUND, peak


def test_selection_with_a_zero_budget_stores_nothing():
    g, truth = _fixture()
    store = select_constraints(g, GroundTruthOracle(truth),
                               budget_queries(0.0, g.n), rng=random.Random(0))
    assert store.queries_used == 0 and not store.ml | store.cl


def test_selection_is_deterministic_under_seeded_rng():
    g, truth = _fixture()
    budget = budget_queries(0.05, g.n)
    a = select_constraints(g, GroundTruthOracle(truth), budget, rng=random.Random(42))
    b = select_constraints(g, GroundTruthOracle(truth), budget, rng=random.Random(42))
    assert a.ml == b.ml
    assert a.cl == b.cl


def test_constraint_file_round_trip():
    ids = IdMap({"n0": 0, "n1": 1, "n2": 2, "n3": 3})
    s = ConstraintStore()
    s.add(0, 2, Relation.MUST_LINK)
    s.add(1, 3, Relation.CANNOT_LINK)
    s.add(0, 1, Relation.MUST_LINK)
    buf = io.StringIO()
    write_constraints(s, buf, ids)
    text = buf.getvalue()
    assert text.splitlines() == ["n0 n1 ML", "n0 n2 ML", "n1 n3 CL"]
    back = load_constraints(io.StringIO(text), ids)
    assert back.ml == s.ml
    assert back.cl == s.cl
    empty = io.StringIO()
    write_constraints(ConstraintStore(), empty, ids)
    assert empty.getvalue() == ""


@pytest.mark.parametrize("instance, pct", [
    ((40, 50, 10, 0.3, 0.002), 0.05),  # chain1610
    ((4, 25, 8, 0.3, 0.05), 0.05),  # chain76, criterion 4's instance
    ((4, 25, 8, 0.3, 0.05), 1.0),
])
def test_a_selected_store_equals_the_store_read_back_from_its_file(instance, pct):
    # a store holds its record and nothing else, so selection leaves no
    # state that a store loaded from the written file would lack
    g, truth = gen_planted_overlap(*instance, seed=0)
    selected = select_constraints(g, GroundTruthOracle(truth), budget_queries(pct, len(truth.nodes())),
                                  random.Random(mix_seed(0, "select")))
    buf = io.StringIO()
    write_constraints(selected, buf, g.ids)
    loaded = load_constraints(io.StringIO(buf.getvalue()), g.ids)
    assert vars(selected) == vars(loaded)
    assert set(vars(selected)) == {"partners", "queries_used"}


def reference_constraint_text(store: ConstraintStore, id_map: IdMap) -> str:
    """The constraint file by one sort of every stored pair."""
    return "".join(f"{id_map.external(u)} {id_map.external(v)} {'ML' if (u, v) in store.ml else 'CL'}\n"
                   for u, v in sorted(store.ml | store.cl))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_constraint_file_matches_the_sorted_pair_reference(data):
    # tokens are not the ids and sort differently; some nodes hold only
    # cannot-links, some nothing, and the store may be empty
    tokens = data.draw(st.lists(st.text(alphabet="abz019", min_size=1, max_size=3),
                                min_size=2, max_size=12, unique=True))
    ids = IdMap({tok: i for i, tok in enumerate(tokens)})
    pairs = list(itertools.combinations(range(len(tokens)), 2))
    s = ConstraintStore()
    for u, v in data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True)):
        s.add(*((v, u) if data.draw(st.booleans()) else (u, v)), data.draw(st.sampled_from(Relation)))
    buf = io.StringIO()
    write_constraints(s, buf, ids)
    assert buf.getvalue() == reference_constraint_text(s, ids)


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


@pytest.mark.parametrize("text, line_no, message", [
    ("0 1 ML\n# note\n1 0 ML\n", 3, "already stored"),
    ("0 1 ML\n\n0 1 CL\n", 3, "opposite relation"),
    ("0 1 CL\n2 2 ML\n", 2, "distinct nodes"),
])
def test_load_constraints_reports_a_bad_pair_with_its_line(text, line_no, message):
    with pytest.raises(ParseError, match=f"^line {line_no}: .*{message}") as raised:
        load_constraints(io.StringIO(text), IdMap.identity(4))
    assert raised.value.line_no == line_no


@pytest.mark.parametrize("content, message", [
    (b"0 1 ML\n0 1\n", "line 2: expected 'u v ML|CL', got '0 1'"),
    (b"0 1 ML\n\n0 1 CL\n", "line 3: pair (0, 1) already holds the opposite relation"),
    (b"\xff 1 ML\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
])
def test_load_constraints_names_the_file_it_reads(tmp_path, content, message):
    # no subcommand reads a constraint file, so the loader is called directly
    path = tmp_path / "pairs.txt"
    path.write_bytes(content)
    with pytest.raises(ParseError) as raised:
        load_constraints(path, IdMap.identity(4))
    assert str(raised.value) == f"{path}: {message}"


def test_load_constraints_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_bytes("\ufeff0 1 ML\n1 2 CL\n".encode())
    store = load_constraints(path, IdMap.identity(3))
    assert (store.ml, store.cl) == ({(0, 1)}, {(1, 2)})


# A chain1610 5% selection (64,762 pairs) leaves 9.2 MB live under tracemalloc;
# keeping each pair a second time, as a tuple in a set per relation, took 15.3 MB.
STORE_BOUND = 11_000_000


def test_a_store_keeps_one_record_of_its_pairs():
    g, truth = gen_planted_overlap(40, 50, 10, 0.3, 0.002, seed=0)
    oracle = GroundTruthOracle(truth)
    budget = budget_queries(0.05, len(truth.nodes()))
    tracemalloc.start()
    try:
        store = select_constraints(g, oracle, budget, rng=random.Random(mix_seed(0, "select")))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert store.queries_used == budget == 64762
    assert held < STORE_BOUND, held


# The stages that build the program's large containers run with the cyclic
# collector paused.
PAUSED_STAGES = (load_edge_list, load_cover, select_constraints, write_constraints,
                 run_pcslpa_report)


def criterion_4_texts() -> tuple[str, str]:
    """The edge and truth text of criterion 4's instance."""
    g, truth = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=0)
    edges, cover = io.StringIO(), io.StringIO()
    write_edge_list(g, edges)
    write_cover(truth, cover, g.ids)
    return edges.getvalue(), cover.getvalue()


def run_paused_stages(edge_text: str, truth_text: str) -> tuple[str, ConstraintStore]:
    """Each paused stage in turn, as select-constraints and then a pcslpa
    run call them, checking that each leaves the collector as it found it:
    the constraint text and the store read back from it."""
    collector_on = gc.isenabled()
    g = load_edge_list(io.StringIO(edge_text))
    assert gc.isenabled() is collector_on
    truth = load_cover(io.StringIO(truth_text), g.ids)
    assert gc.isenabled() is collector_on
    store = select_constraints(g, GroundTruthOracle(truth), budget_queries(0.05, len(truth.nodes())),
                               random.Random(mix_seed(0, "select")))
    assert gc.isenabled() is collector_on
    buf = io.StringIO()
    write_constraints(store, buf, g.ids)
    assert gc.isenabled() is collector_on
    run_pcslpa_report(g, store, SlpaParams(iterations=12, seed=1))
    assert gc.isenabled() is collector_on
    return buf.getvalue(), load_constraints(io.StringIO(buf.getvalue()), g.ids)


@pytest.mark.parametrize("collector_on", [True, False])
def test_each_paused_stage_leaves_the_collector_as_it_found_it(collector_on):
    assert [f.__name__ for f in PAUSED_STAGES] == [
        "load_edge_list", "load_cover", "select_constraints", "write_constraints",
        "run_pcslpa_report"]
    assert gc.isenabled()
    if not collector_on:
        gc.disable()
    try:
        text, loaded = run_paused_stages(*criterion_4_texts())
        with pytest.raises(ParseError):
            load_edge_list(["0 1 2\n"])
        assert gc.isenabled() is collector_on
    finally:
        gc.enable()
    assert loaded.queries_used == text.count("\n") == budget_queries(0.05, 76)


def test_the_paused_stages_leave_no_cyclic_garbage():
    # with the collector off throughout, a cycle that a stage made and
    # dropped is still uncollected at the check; the stages build no
    # reference cycle, so the pause holds back no memory
    texts = criterion_4_texts()
    gc.collect()
    gc.disable()
    try:
        run_paused_stages(*texts)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_pcslpa_run_repairs_with_the_collector_paused(monkeypatch):
    g, _ = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=0)
    store = ConstraintStore()
    store.add(0, 15, Relation.MUST_LINK)
    store.add(1, 16, Relation.CANNOT_LINK)
    states = []
    must_link = constrained.repair_must_link
    monkeypatch.setattr(constrained, "repair_must_link",
                        lambda *args: states.append(gc.isenabled()) or must_link(*args))
    run_pcslpa_report(g, store, SlpaParams(iterations=12, seed=1))
    assert states == [False] * 3 and gc.isenabled()
