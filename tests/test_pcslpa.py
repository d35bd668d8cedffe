"""Constrained propagation and repair tests.

Repair examples pin exact memory states before and after each rule, since
the rules are defined on label multisets and are easy to get subtly wrong
(count raising, direction blocking, deletion side choice, emptiness guard).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_slpa import argmax, mem

from pcslpa import constrained
from pcslpa.constrained import (
    RepairReport,
    constrained_evaluation_pass,
    constrained_speaker_set,
    init_constrained,
    merge_linked_labels,
    repair_cannot_link,
    repair_must_link,
    run_pcslpa_report,
)
from pcslpa.constraints import (
    ConstraintStore,
    GroundTruthOracle,
    Relation,
    budget_queries,
    canonical_pair,
    select_constraints,
)
from pcslpa.graph import build_graph
from pcslpa.planted import gen_planted_overlap
from pcslpa.slpa import (
    LabelMemory,
    PartnerTops,
    SlpaParams,
    init_memories,
    run_slpa,
)


def cover_key(cover):
    return {frozenset(c) for c in cover.communities}


def partner_tops(mems, store) -> PartnerTops:
    return PartnerTops(store.partners[Relation.CANNOT_LINK], mems)


def recount_partner_tops(mems, store) -> dict[int, dict[int, int]]:
    """Brute-force PartnerTops.blocked: each cannot-link endpoint's partners'
    tops, counted from the store's pairs."""
    recount: dict[int, dict[int, int]] = {}
    for u, v in store.cl:
        for node, partner in ((u, v), (v, u)):
            tops = recount.setdefault(node, {})
            top = mems[partner].top
            tops[top] = tops.get(top, 0) + 1
    return recount


def constrained_pass(g, store, mems, rng) -> None:
    speakers = [constrained_speaker_set(g, store, v) for v in range(g.n)]
    constrained_evaluation_pass(speakers, mems, partner_tops(mems, store), rng)


def ml_repair(mems, store) -> RepairReport:
    return repair_must_link(mems, sorted(store.ml), RepairReport(), set(),
                            partner_tops(mems, store))


def cl_repair(mems, store, rng, pairs, speakers) -> RepairReport:
    return repair_cannot_link(mems, partner_tops(mems, store), rng, RepairReport(), pairs,
                              speakers)


def cl_repair_by_count(mems, store, rng) -> RepairReport:
    # with no speakers both support terms are 0, so counts and then the coin
    # decide
    return cl_repair(mems, store, rng, sorted(store.cl), [[]] * len(mems))


def test_init_exchanges_labels_across_must_link_pairs():
    g = build_graph(2, [(0, 1)])
    store = ConstraintStore()
    store.add(0, 1, Relation.MUST_LINK)
    mems = init_constrained(g, sorted(store.ml))
    assert mems[0].counts == {0: 1, 1: 1}
    assert mems[1].counts == {1: 1, 0: 1}
    assert mems[0].total == mems[1].total == 2


def test_init_without_constraints_matches_plain_init():
    g = build_graph(3, [(0, 1), (1, 2)])
    a = init_constrained(g, [])
    b = init_memories(g)
    assert [m.counts for m in a] == [m.counts for m in b]


def test_init_accumulates_multiple_partners():
    g = build_graph(3, [(0, 1), (0, 2)])
    store = ConstraintStore()
    store.add(0, 1, Relation.MUST_LINK)
    store.add(0, 2, Relation.MUST_LINK)
    mems = init_constrained(g, sorted(store.ml))
    assert mems[0].counts == {0: 1, 1: 1, 2: 1}
    assert mems[0].total == 3


def test_speaker_set_adds_ml_and_removes_cl():
    g = build_graph(6, [(0, 1), (0, 2)])
    store = ConstraintStore()
    store.add(0, 5, Relation.MUST_LINK)
    store.add(0, 2, Relation.CANNOT_LINK)
    assert constrained_speaker_set(g, store, 0) == [1, 5]


def test_speaker_set_unconstrained_is_the_adjacency_list_itself():
    # identity matters: the unsupervised rng stream must be byte-for-byte
    # preserved when the store is empty
    g = build_graph(3, [(0, 1), (0, 2)])
    assert constrained_speaker_set(g, ConstraintStore(), 0) is g.adjacency[0]


def test_speaker_set_can_empty_out():
    g = build_graph(2, [(0, 1)])
    store = ConstraintStore()
    store.add(0, 1, Relation.CANNOT_LINK)
    assert constrained_speaker_set(g, store, 0) == []


def test_listener_rejects_labels_of_cannot_link_partners():
    g = build_graph(8, [(0, 1), (0, 2), (0, 3)])
    store = ConstraintStore()
    store.add(0, 7, Relation.CANNOT_LINK)
    mems = [LabelMemory(v) for v in range(8)]
    mems[1] = mem({7: 1})
    mems[2] = mem({7: 1})
    mems[3] = mem({8: 1})
    # seed 3 puts node 0 first in the sweep, so its speakers are still
    # pristine: labels 7,7,8 arrive and 7 is rejected
    constrained_pass(g, store, mems, random.Random(3))
    assert mems[0].counts == {0: 1, 8: 1}


def test_listener_unchanged_when_every_label_is_rejected():
    g = build_graph(8, [(0, 1), (0, 2)])
    store = ConstraintStore()
    store.add(0, 7, Relation.CANNOT_LINK)
    mems = [LabelMemory(v) for v in range(8)]
    mems[1] = mem({7: 1})
    mems[2] = mem({7: 1})
    constrained_pass(g, store, mems, random.Random(3))
    assert mems[0].counts == {0: 1}


def test_listener_rejects_the_partner_top_not_the_partner_id():
    # cannot-link partner 7 now tops on label 5: 5 is rejected and the
    # partner's own id 7, no longer its top, is accepted
    g = build_graph(8, [(0, 1), (0, 2), (0, 3)])
    store = ConstraintStore()
    store.add(0, 7, Relation.CANNOT_LINK)
    mems = [LabelMemory(v) for v in range(8)]
    mems[1] = mem({5: 1})
    mems[2] = mem({5: 1})
    mems[3] = mem({7: 1})
    mems[7] = mem({5: 3, 7: 1})
    constrained_pass(g, store, mems, random.Random(3))
    assert mems[0].counts == {0: 1, 7: 1}


def test_label_memory_top_is_the_argmax_through_passes_and_repairs():
    g, truth = gen_planted_overlap(3, 10, 2, 0.6, 0.05, seed=4)
    store = select_constraints(g, GroundTruthOracle(truth),
                               budget_queries(0.1, g.n), rng=random.Random(4))
    mems = init_constrained(g, sorted(store.ml))
    speakers = [constrained_speaker_set(g, store, v) for v in range(g.n)]
    index = partner_tops(mems, store)
    rng = random.Random(9)

    def tops_are_argmax() -> bool:
        return ([m.top for m in mems] == [argmax(m.counts) for m in mems]
                and index.blocked == recount_partner_tops(mems, store))

    for _ in range(6):
        constrained_evaluation_pass(speakers, mems, index, rng)
        assert tops_are_argmax()
    report, gained = RepairReport(), set()
    merge_linked_labels(mems, sorted(store.ml), report, gained, index)
    assert report.label_merges > 0
    assert tops_are_argmax()
    repair_must_link(mems, sorted(store.ml), report, gained, index)
    assert tops_are_argmax()
    repair_cannot_link(mems, index, rng, report, sorted(store.cl), speakers)
    assert report.cl_deletions > 0
    assert tops_are_argmax()


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 10).flatmap(lambda n: st.tuples(
           st.just(n),
           st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25),
           st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
                    max_size=12))),
       st.integers(0, 2**32 - 1))
def test_partner_tops_match_a_recount_through_passes_and_repairs(case, seed):
    n, edges, constraints = case
    g = build_graph(n, edges)
    store = ConstraintStore()
    for u, v, must in constraints:
        if u != v and canonical_pair(u, v) not in store:
            store.add(u, v, Relation.MUST_LINK if must else Relation.CANNOT_LINK)
    mems = init_constrained(g, sorted(store.ml))
    speakers = [constrained_speaker_set(g, store, v) for v in range(n)]
    index = partner_tops(mems, store)
    rng = random.Random(seed)
    assert index.blocked == recount_partner_tops(mems, store)
    for _ in range(3):
        for _ in range(2):
            constrained_evaluation_pass(speakers, mems, index, rng)
            assert index.blocked == recount_partner_tops(mems, store)
        report, gained = RepairReport(), set()

        def ml_repair_keeps_every_top() -> None:
            tops = [m.top for m in mems]
            repair_must_link(mems, sorted(store.ml), report, gained, index)
            assert [m.top for m in mems] == tops

        # also before a merge, which otherwise aligns most must-link tops
        ml_repair_keeps_every_top()
        assert index.blocked == recount_partner_tops(mems, store)
        merge_linked_labels(mems, sorted(store.ml), report, gained, index)
        assert index.blocked == recount_partner_tops(mems, store)
        ml_repair_keeps_every_top()
        assert index.blocked == recount_partner_tops(mems, store)
        repair_cannot_link(mems, index, rng, report, sorted(store.cl), speakers)
        assert index.blocked == recount_partner_tops(mems, store)


def test_merge_joins_linked_tops_everywhere():
    store = ConstraintStore()
    store.add(0, 1, Relation.MUST_LINK)
    mems = [mem({10: 3, 5: 1}), mem({11: 2}), mem({11: 4, 10: 1})]
    gained = set()
    report = merge_linked_labels(mems, sorted(store.ml), RepairReport(), gained, partner_tops(mems, store))
    assert report.label_merges == 1
    assert mems[0].counts == {10: 3, 5: 1}
    assert mems[1].counts == {10: 2}
    assert mems[2].counts == {10: 5}
    assert [m.top for m in mems] == [10, 10, 10]
    assert gained == {1, 2}


def test_merge_is_vetoed_by_a_separating_cannot_link():
    store = ConstraintStore()
    store.add(0, 1, Relation.MUST_LINK)
    store.add(2, 3, Relation.CANNOT_LINK)
    mems = [mem({10: 3}), mem({11: 2}), mem({10: 2}), mem({11: 5})]
    report = merge_linked_labels(mems, sorted(store.ml), RepairReport(), set(), partner_tops(mems, store))
    assert report.label_merges == 0
    assert [m.counts for m in mems] == [{10: 3}, {11: 2}, {10: 2}, {11: 5}]


def test_ml_repair_one_way_gives_the_weaker_side_the_partner_top():
    store = ConstraintStore()
    store.add(0, 1, Relation.MUST_LINK)
    # node 1's top holds half its memory, node 0's top five sixths; label 100
    # has the lower id, so it stops one short of a tie with node 1's top, and
    # against a top of count 1 nothing is granted and no exchange is counted
    for weaker, granted, joins, exchanges in (
            ({102: 2, 103: 2}, {102: 2, 103: 2, 100: 1}, {1}, 1),
            ({102: 1, 103: 1}, {102: 1, 103: 1}, set(), 0)):
        mems = [mem({100: 5, 101: 1}), mem(weaker)]
        gained = set()
        report = repair_must_link(mems, sorted(store.ml), RepairReport(), gained,
                                  partner_tops(mems, store))
        assert mems[0].counts == {100: 5, 101: 1}
        assert mems[1].counts == granted
        assert mems[1].top == 102
        assert gained == joins
        assert report.ml_exchanges == exchanges
        assert report.ml_blocked_transfers == 0


def test_ml_repair_one_way_falls_back_to_the_other_side_when_blocked():
    store = ConstraintStore()
    store.add(0, 1, Relation.MUST_LINK)
    store.add(1, 2, Relation.CANNOT_LINK)
    mems = [mem({100: 5, 101: 1}), mem({102: 2, 103: 2}), mem({100: 4})]
    report = ml_repair(mems, store)
    assert mems[1].counts == {102: 2, 103: 2}
    assert mems[0].counts == {100: 5, 101: 1, 102: 5}
    assert report.ml_blocked_transfers == 1


def test_cl_repair_by_support_strips_the_less_embedded_side():
    store = ConstraintStore()
    store.add(0, 1, Relation.CANNOT_LINK)
    # node 1 holds label 100 with the larger count, but only one of its two
    # speakers tops on 100 against both of node 0's
    mems = [mem({100: 2, 7: 3}), mem({100: 5, 8: 1}),
            mem({100: 1}), mem({100: 1}), mem({100: 1}), mem({9: 1})]
    speakers = [[2, 3], [4, 5], [], [], [], []]
    report = cl_repair(mems, store, random.Random(0), sorted(store.cl), speakers)
    assert mems[0].counts == {100: 2, 7: 3}
    assert mems[1].counts == {8: 1}
    assert mems[1].top == 8
    assert report.cl_deletions == 1


def test_cl_repair_checks_only_the_given_pairs():
    store = ConstraintStore()
    store.add(0, 1, Relation.CANNOT_LINK)
    store.add(2, 3, Relation.CANNOT_LINK)
    mems = [mem({100: 3, 1: 1}), mem({100: 2, 2: 1}), mem({200: 3, 3: 1}), mem({200: 2, 4: 1})]
    report = cl_repair(mems, store, random.Random(0), [(0, 1)], [[]] * len(mems))
    assert report.cl_deletions == 1
    assert 100 not in mems[1].counts
    assert 200 in mems[2].counts and 200 in mems[3].counts


def test_default_schedule_repairs_periodically(monkeypatch):
    g, truth = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=0)
    store = select_constraints(g, GroundTruthOracle(truth), budget_queries(0.05, g.n),
                               rng=random.Random(1))
    passes, repairs = [], []
    evaluation_pass, must_link = constrained.constrained_evaluation_pass, constrained.repair_must_link
    monkeypatch.setattr(constrained, "constrained_evaluation_pass",
                        lambda *args: passes.append(1) or evaluation_pass(*args))
    monkeypatch.setattr(constrained, "repair_must_link",
                        lambda *args: repairs.append(len(passes)) or must_link(*args))
    # after every 5th pass and after the last; a run of at most 5 passes repairs once
    for iterations, repaired_after in ((12, [5, 10, 12]), (3, [3])):
        passes.clear()
        repairs.clear()
        run_pcslpa_report(g, store, SlpaParams(iterations=iterations, seed=1))
        assert repairs == repaired_after


def test_ml_repair_skips_pairs_already_aligned():
    store = ConstraintStore()
    store.add(0, 1, Relation.MUST_LINK)
    mems = [mem({9: 3}), mem({9: 2, 4: 1})]
    report = ml_repair(mems, store)
    assert report.ml_exchanges == 0
    assert mems[0].counts == {9: 3}
    assert mems[1].counts == {9: 2, 4: 1}


def test_cl_repair_deletes_common_label_from_smaller_holder():
    store = ConstraintStore()
    store.add(0, 1, Relation.CANNOT_LINK)
    mems = [mem({100: 3, 101: 1}), mem({100: 2, 102: 2})]
    report = cl_repair_by_count(mems, store, random.Random(0))
    assert mems[0].counts == {100: 3, 101: 1}
    assert mems[1].counts == {102: 2}
    assert report.cl_deletions == 1
    assert report.cl_guard_exceptions == 0


def test_cl_repair_deletion_falls_to_partner_when_loser_is_single_label():
    store = ConstraintStore()
    store.add(0, 1, Relation.CANNOT_LINK)
    # 0 holds the smaller count but only that one label; 1 absorbs the loss
    mems = [mem({100: 2}), mem({100: 3, 103: 1})]
    report = cl_repair_by_count(mems, store, random.Random(0))
    assert mems[0].counts == {100: 2}
    assert mems[1].counts == {103: 1}
    assert report.cl_deletions == 1
    assert set(mems[0].counts).isdisjoint(mems[1].counts)


def test_cl_repair_guard_when_both_sides_would_empty():
    store = ConstraintStore()
    store.add(0, 1, Relation.CANNOT_LINK)
    mems = [mem({100: 2}), mem({100: 2})]
    report = cl_repair_by_count(mems, store, random.Random(0))
    assert mems[0].counts == {100: 2}
    assert mems[1].counts == {100: 2}
    assert report.cl_deletions == 0
    assert report.cl_guard_exceptions == 1


def test_cl_repair_handles_multiple_common_labels():
    store = ConstraintStore()
    store.add(0, 1, Relation.CANNOT_LINK)
    mems = [mem({100: 2, 101: 3, 104: 9}), mem({100: 5, 101: 1, 105: 4})]
    report = cl_repair_by_count(mems, store, random.Random(0))
    assert set(mems[0].counts).isdisjoint(mems[1].counts)
    assert report.cl_deletions == 2
    assert mems[0].counts == {101: 3, 104: 9}
    assert mems[1].counts == {100: 5, 105: 4}


def test_cl_repair_ignores_disjoint_pairs():
    store = ConstraintStore()
    store.add(0, 1, Relation.CANNOT_LINK)
    mems = [mem({1: 4}), mem({2: 6})]
    report = cl_repair_by_count(mems, store, random.Random(0))
    assert report.cl_deletions == 0
    assert mems[0].counts == {1: 4}


def test_cl_repair_tie_side_is_random_but_seeded():
    store = ConstraintStore()
    store.add(0, 1, Relation.CANNOT_LINK)
    outcomes = set()
    for seed in range(20):
        mems = [mem({100: 2, 101: 1}), mem({100: 2, 102: 1})]
        cl_repair_by_count(mems, store, random.Random(seed))
        outcomes.add(100 in mems[0].counts)
    # over 20 seeds both sides must lose at least once
    assert outcomes == {True, False}


def test_empty_store_reduces_to_unsupervised_run():
    g, _ = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=0)
    for seed in range(10):
        base = SlpaParams(iterations=40, threshold=0.1, seed=seed)
        plain = run_slpa(g, base)
        supervised = run_pcslpa_report(g, ConstraintStore(), base)[0]
        assert cover_key(plain) == cover_key(supervised)


def test_output_communities_respect_cannot_links():
    g, truth = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=0)
    for seed in range(3):
        store = select_constraints(g, GroundTruthOracle(truth),
                                   budget_queries(0.05, g.n),
                                   rng=random.Random(seed))
        base = SlpaParams(iterations=50, threshold=0.1, seed=seed)
        cover, report = run_pcslpa_report(g, store, base)
        for u, v in store.cl:
            for comm in cover.communities:
                assert not (u in comm and v in comm)
        assert report.cl_guard_exceptions == 0


def test_periodic_repair_schedule_also_ends_clean():
    g, truth = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=0)
    store = select_constraints(g, GroundTruthOracle(truth),
                               budget_queries(0.05, g.n),
                               rng=random.Random(1))
    base = SlpaParams(iterations=30, threshold=0.1, seed=1)
    cover, _ = run_pcslpa_report(g, store, base)
    for u, v in store.cl:
        for comm in cover.communities:
            assert not (u in comm and v in comm)


def test_constrained_run_is_deterministic():
    g, truth = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=2)
    store = select_constraints(g, GroundTruthOracle(truth),
                               budget_queries(0.05, g.n),
                               rng=random.Random(3))
    params = SlpaParams(iterations=30, seed=7)
    c1, r1 = run_pcslpa_report(g, store, params)
    c2, r2 = run_pcslpa_report(g, store, params)
    assert cover_key(c1) == cover_key(c2)
    assert r1 == r2
