"""Unsupervised propagation tests.

Distributional claims (speaking proportionally, uniform tie breaks) are
checked by frequency counts over many draws with generous tolerances, so
they are stable under any correct implementation.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcslpa import slpa
from pcslpa.graph import Cover, build_graph
from pcslpa.nmi import overlapping_nmi
from pcslpa.planted import gen_planted_overlap
from pcslpa.slpa import (
    LabelMemory,
    PartnerTops,
    SlpaParams,
    evaluation_pass,
    init_memories,
    listener_order,
    post_process,
    run_slpa,
)


def mem(counts: dict[int, int]) -> LabelMemory:
    """Memory holding the given counts, in the given order."""
    items = iter(counts.items())
    label, k = next(items)
    m = LabelMemory(label)
    m.add(label, k - 1)
    for label, k in items:
        m.add(label, k)
    return m


def argmax(counts: dict[int, int]) -> int:
    """Brute-force top label: the maximal count, the lowest label on a tie."""
    best = max(counts.values())
    return min(label for label, count in counts.items() if count == best)


def speak(memory: LabelMemory, rng: random.Random) -> int:
    """Reference draw: `randrange(total)`, then a linear scan of the counts in
    insertion order."""
    x = rng.randrange(memory.total)
    for label, count in memory.counts.items():
        x -= count
        if x < 0:
            return label
    raise AssertionError("memory total inconsistent with counts")


def listen(received: list[int], rng: random.Random) -> int:
    """Reference listener: the most popular label among received, ties broken
    uniformly at random among the tied labels in first-received order."""
    counts: dict[int, int] = {}
    for label in received:
        counts[label] = counts.get(label, 0) + 1
    best = max(counts.values())
    top = [label for label, c in counts.items() if c == best]
    if len(top) == 1:
        return top[0]
    return top[rng.randrange(len(top))]


def reference_pass(speakers, memories, cl_partners, rng) -> None:
    """The pass loop with the reference draw; evaluation_pass must match it
    draw for draw."""
    for v in listener_order(len(speakers), rng):
        if not speakers[v]:
            continue
        received = [speak(memories[u], rng) for u in speakers[v]]
        partners = cl_partners.get(v)
        if partners:
            blocked = {memories[p].top for p in partners}
            received = [label for label in received if label not in blocked]
            if not received:
                continue
        memories[v].add(listen(received, rng))


def state(memory: LabelMemory):
    """What the pass reads of a memory: counts in insertion order, total, top."""
    return list(memory.counts.items()), memory.total, memory.top


def test_memory_add_and_total():
    m = LabelMemory(4)
    assert m.counts == {4: 1}
    assert m.total == 1
    m.add(4)
    m.add(9, 3)
    assert m.counts == {4: 2, 9: 3}
    assert m.total == 5


def test_memory_top_breaks_ties_toward_lowest_label():
    m = mem({8: 2})
    m.add(3, 2)
    m.add(5, 1)
    assert m.top == 3


def test_memory_remove_keeps_the_last_label():
    m = mem({1: 5})
    m.add(2, 3)
    with pytest.raises(KeyError):
        m.remove(99)
    m.remove(1)
    assert m.counts == {2: 3}
    assert m.total == 3
    assert m.top == 2
    with pytest.raises(ValueError):
        m.remove(2)
    with pytest.raises(TypeError):
        LabelMemory()


def test_memory_rename_moves_counts_and_reelects_the_top():
    m = mem({4: 3, 6: 2, 9: 2})
    assert not m.rename({1: 0})
    assert m.rename({6: 1, 9: 1})
    assert m.counts == {4: 3, 1: 4}
    assert m.total == 7
    assert m.top == 1


def expanded(memory: LabelMemory) -> list[int | None]:
    """The draw tape by definition: each label `count` times in insertion
    order, padded with None to the next power of two above the total."""
    tape = [label for label, count in memory.counts.items() for _ in range(count)]
    return tape + [None] * (2 ** memory.total.bit_length() - memory.total)


def test_memory_add_of_zero_changes_nothing_and_negative_raises():
    m = LabelMemory(0)
    m.add(5, 0)
    assert m.counts == {0: 1}
    assert m.total == 1
    tape = m.draw_tape()
    m.add(0, 0)
    assert m.tape is tape and tape == [0, None]
    with pytest.raises(ValueError):
        m.add(2, -2)
    with pytest.raises(ValueError):
        m.add(0, -1)
    assert m.counts == {0: 1}
    assert m.total == 1
    assert m.tape == [0, None]


def test_memory_add_drops_a_built_tape():
    # only the pass writes tapes: an add of at least one occurrence drops a
    # built tape, an add of none leaves it, and the rebuilt tape lays the
    # labels out in insertion order, as the tape by definition does
    m = mem({4: 2, 9: 1})
    tape = m.draw_tape()
    assert tape == [4, 4, 9, None]
    m.add(9, 0)
    m.add(5, 0)
    assert m.tape is tape and tape == [4, 4, 9, None]
    for label, k, rebuilt in [
            (4, 1, [4, 4, 4, 9, None, None, None, None]),
            (7, 1, [4, 4, 4, 9, 7, None, None, None]),
            (9, 2, [4, 4, 4, 9, 9, 9, 7, None]),
            (7, 12, [4, 4, 4, 9, 9, 9] + [7] * 13 + [None] * 13)]:
        m.add(label, k)
        assert m.tape is None
        assert m.draw_tape() == rebuilt == expanded(m)
        assert m.tape == rebuilt


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6),
       st.lists(st.tuples(
           st.booleans(),
           st.one_of(
               st.tuples(st.just("add"), st.integers(0, 6), st.integers(0, 9)),
               st.tuples(st.just("remove"), st.integers(0, 6)),
               st.tuples(st.just("rename"), st.dictionaries(st.integers(0, 6), st.integers(0, 6),
                                                            max_size=3)))),
           max_size=30))
def test_memory_top_and_total_track_every_operation(first, operations):
    m = LabelMemory(first)
    for build, operation in operations:
        # a tape built before the operation must be dropped or kept current;
        # an add drops it unless it adds 0, and adds of 0 hit existing labels
        # as well as new ones
        if build:
            m.draw_tape()
        before = m.tape
        if operation[0] == "add":
            m.add(operation[1], operation[2])
        elif operation[0] == "remove":
            if operation[1] not in m.counts or len(m.counts) == 1:
                continue
            m.remove(operation[1])
        else:
            # a target must not itself be renamed
            targets = {label: target for label, target in operation[1].items()
                       if target not in operation[1]}
            m.rename(targets)
        assert m.top == argmax(m.counts)
        assert m.total == sum(m.counts.values())
        assert all(count > 0 for count in m.counts.values())
        fresh = expanded(m)
        if operation[0] == "add":
            assert m.tape is (None if operation[2] else before)
        assert m.tape in (None, fresh)
        assert m.draw_tape() == fresh
        assert m.tape == fresh


def listen_to(speakers: list[LabelMemory], passes: int, seed: int,
              blocked: LabelMemory | None = None) -> dict[int, int]:
    """Labels that a lone listener (label -1) adds over the given number of
    passes, each pass hearing one label from every speaker, with their
    counts. A blocked memory is the listener's one cannot-link partner."""
    memories = [LabelMemory(-1), *speakers]
    lists = [list(range(1, len(memories)))] + [[] for _ in speakers]
    partners: dict[int, set[int]] = {}
    if blocked is not None:
        partners = {0: {len(memories)}, len(memories): {0}}
        memories.append(blocked)
        lists.append([])
    rng = random.Random(seed)
    index = PartnerTops(partners, memories)
    for _ in range(passes):
        evaluation_pass(lists, memories, index, rng)
    heard = dict(memories[0].counts)
    heard[-1] -= 1
    return {label: count for label, count in heard.items() if count}


def test_speak_is_proportional_to_counts():
    draws = 10_000
    heard = listen_to([mem({5: 3, 9: 1})], draws, seed=11)
    assert sum(heard.values()) == draws
    assert heard[5] / draws == pytest.approx(0.75, abs=0.02)


def test_speak_single_label():
    assert listen_to([LabelMemory(7)], 50, seed=0) == {7: 50}


def test_draw_is_randrange_of_the_total():
    # Label x of a memory holding labels 0..total-1 once each spans exactly
    # the draw x, so the label heard is the draw itself. The pass must draw
    # what randrange(total) draws on this interpreter, and consume the same
    # stream, for every total up to 4096.
    for seed in (0, 1, 12345):
        rng, reference = random.Random(seed), random.Random(seed)
        speaker = LabelMemory(0)
        for total in range(1, 4097):
            listener = LabelMemory(-1)
            memories = [listener, speaker]
            evaluation_pass([[1], []], memories, PartnerTops({}, memories), rng)
            reference.shuffle([0, 1])
            assert list(listener.counts) == [-1, reference.randrange(total)]
            assert rng.getstate() == reference.getstate()
            speaker.add(total)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
           st.just(n),
           st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20),
           st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3),
           st.lists(st.tuples(st.sampled_from(("add", "remove", "rename")),
                              st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5)),
                    max_size=6))),
       st.integers(0, 2**32 - 1),
       st.integers(1, 4))
def test_pass_matches_the_reference_draw_for_draw(case, seed, passes):
    n, edges, cannot_links, operations = case
    g = build_graph(n, edges)
    cl_partners: dict[int, set[int]] = {}
    for u, v in cannot_links:
        if u != v:
            cl_partners.setdefault(u, set()).add(v)
            cl_partners.setdefault(v, set()).add(u)
    fast, slow = init_memories(g), init_memories(g)
    # built once and kept current by the pass and by the reports below; the
    # reference pass recounts the partners' tops at every listener instead
    partner_tops = PartnerTops(cl_partners, fast)
    rng_fast, rng_slow = random.Random(seed), random.Random(seed)
    for _ in range(passes):
        evaluation_pass(g.adjacency, fast, partner_tops, rng_fast)
        reference_pass(g.adjacency, slow, cl_partners, rng_slow)
        assert [state(m) for m in fast] == [state(m) for m in slow]
        assert rng_fast.getstate() == rng_slow.getstate()
        # the pass keeps the tapes it builds current in place
        assert all(m.tape is None or m.tape == expanded(m) for m in fast)
        # change memories between passes, as repairs do
        for op, v, label, k in operations:
            for memories in (fast, slow):
                m = memories[v]
                top = m.top
                if op == "add":
                    m.add(label, k)
                elif op == "remove" and label in m.counts and len(m.counts) > 1:
                    m.remove(label)
                elif op == "rename" and label != k:
                    m.rename({label: k})
                if memories is fast:
                    partner_tops.moved(v, top, m.top)


def test_pass_grows_a_tape_across_powers_of_two():
    # Node 0 hears one of ten labels, new or already held, once per pass, so
    # its total crosses 2, 4, ..., 256 and its tape doubles at each; node 2
    # hears node 0, in the same pass as a doubling about half the time.
    fast = [LabelMemory(0), mem({label: 1 for label in range(10, 20)}), LabelMemory(2)]
    slow = [mem(dict(m.counts)) for m in fast]
    speakers = [[1], [], [0]]
    rng_fast, rng_slow = random.Random(7), random.Random(7)
    partner_tops = PartnerTops({}, fast)
    for passes in range(1, 301):
        evaluation_pass(speakers, fast, partner_tops, rng_fast)
        reference_pass(speakers, slow, {}, rng_slow)
        assert [state(m) for m in fast] == [state(m) for m in slow]
        assert rng_fast.getstate() == rng_slow.getstate()
        assert fast[0].total == passes + 1
        for m in fast:
            assert m.tape == expanded(m)


def test_listen_picks_clear_majority():
    speakers = [LabelMemory(7), LabelMemory(7), LabelMemory(8)]
    assert listen_to(speakers, 50, seed=1) == {7: 50}


def test_listen_breaks_ties_uniformly():
    draws = 10_000
    heard = listen_to([LabelMemory(7), LabelMemory(8)], draws, seed=2)
    assert sum(heard.values()) == draws
    assert heard[7] / draws == pytest.approx(0.5, abs=0.02)


def test_listen_never_returns_minority_label():
    speakers = [LabelMemory(label) for label in (1, 2, 2, 3, 3)]
    heard = listen_to(speakers, 200, seed=3)
    assert sum(heard.values()) == 200
    assert set(heard) <= {2, 3}
    # a listener whose every label is its partner's top adds nothing
    assert listen_to([LabelMemory(7), LabelMemory(7)], 20, seed=3,
                     blocked=LabelMemory(7)) == {}


@pytest.mark.parametrize("hearing, blocked_label, winners", [
    # 5 reaches 2, 6 ties it, 7 overtakes both at 3
    pytest.param([5, 5, 6, 6, 7, 7, 7], None, {7}, id="overtake"),
    # three labels tie at 2, after each led at 1
    pytest.param([1, 2, 3, 3, 2, 1], None, {1, 2, 3}, id="three-tie-at-2"),
    pytest.param([8, 6, 7], None, {6, 7, 8}, id="three-tie-at-1"),
    # the most-heard label is the partner's top, so the runner-up wins
    pytest.param([9, 4, 9, 5, 4, 9], 9, {4}, id="blocked-best"),
    pytest.param([9, 4, 9, 5, 9], 9, {4, 5}, id="blocked-best-runners-up-tie"),
    # the listener is unchanged
    pytest.param([9, 9, 9], 9, set(), id="all-blocked"),
    pytest.param([3, 3, 3, 3], None, {3}, id="lone-label"),
])
def test_vote_on_chosen_hearing_orders(hearing, blocked_label, winners):
    # Listener 0 hears one single-label speaker per entry of hearing, in
    # that order; node 1 is its cannot-link partner, topping on blocked_label.
    partner_label = -2 if blocked_label is None else blocked_label
    speakers = [list(range(2, 2 + len(hearing))), []] + [[] for _ in hearing]
    cl_partners = {0: {1}, 1: {0}}
    chosen = set()
    for seed in range(50):
        fast, slow = ([LabelMemory(-1), LabelMemory(partner_label)]
                      + [LabelMemory(label) for label in hearing] for _ in range(2))
        rng_fast, rng_slow = random.Random(seed), random.Random(seed)
        evaluation_pass(speakers, fast, PartnerTops(cl_partners, fast), rng_fast)
        reference_pass(speakers, slow, cl_partners, rng_slow)
        assert [state(m) for m in fast] == [state(m) for m in slow]
        assert rng_fast.getstate() == rng_slow.getstate()
        chosen.update(label for label in fast[0].counts if label != -1)
    # over 50 seeds every tied label is drawn at least once
    assert chosen == winners


def test_sweep_order_is_the_stdlib_shuffle():
    # n up to 130 crosses every bit-length boundary of the swap draws up to
    # 128; the larger n start just below, at and just above a power of two
    larger = [2**p + d for p in (8, 9, 10, 12) for d in (-1, 0, 1)]
    for seed in (0, 1, 12345):
        for n in [*range(131), *larger]:
            rng, reference = random.Random(seed), random.Random(seed)
            order = list(range(n))
            reference.shuffle(order)
            assert listener_order(n, rng) == order
            assert rng.getstate() == reference.getstate()


def test_init_memories_hold_own_label():
    g = build_graph(3, [(0, 1)])
    mems = init_memories(g)
    assert [m.counts for m in mems] == [{0: 1}, {1: 1}, {2: 1}]


def test_evaluation_pass_grows_connected_nodes_only():
    # node 2 is isolated: it never listens and nobody hears it
    g = build_graph(3, [(0, 1)])
    mems = init_memories(g)
    rng = random.Random(5)
    evaluation_pass(g.adjacency, mems, PartnerTops({}, mems), rng)
    assert mems[0].total == 2
    assert mems[1].total == 2
    assert mems[2].total == 1
    assert set(mems[0].counts) <= {0, 1}


def test_memory_totals_after_t_passes():
    g, _ = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=0)
    mems = init_memories(g)
    rng = random.Random(6)
    t = 13
    partner_tops = PartnerTops({}, mems)
    for _ in range(t):
        evaluation_pass(g.adjacency, mems, partner_tops, rng)
    assert all(m.total == 1 + t for m in mems)


def test_post_process_thresholding():
    m = mem({0: 7, 1: 2, 2: 1})
    cover = post_process([m], threshold=0.25)
    assert cover == Cover([{0}])
    assert len(cover) == 1


def test_post_process_fallback_keeps_top_label():
    # both labels fall below the cut; the node keeps exactly its top one,
    # lowest label id on a tie
    m = mem({3: 2, 1: 2})
    cover = post_process([m], threshold=0.6)
    assert len(cover) == 1
    assert cover == Cover([{0}])
    # label 1 won the tie: a second node holding only label 1 joins it
    m2 = LabelMemory(1)
    joint = post_process([m, m2], threshold=0.6)
    assert joint == Cover([{0, 1}])


def test_post_process_zero_threshold_keeps_everything():
    a = mem({0: 1, 1: 9})
    cover = post_process([a], threshold=0.0)
    # one node, two labels, two (deduped) communities of the same node
    assert cover == Cover([{0}])
    b = LabelMemory(5)
    two = post_process([a, b], threshold=0.0)
    assert two == Cover([{0}, {1}])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(1, 9), min_size=1, max_size=4),
                min_size=1, max_size=6),
       st.floats(0.0, 1.0))
def test_post_process_covers_every_node(count_maps, threshold):
    mems = [mem(counts) for counts in count_maps]
    cover = post_process(mems, threshold)
    covered = set().union(*cover.communities)
    assert covered == set(range(len(mems)))


def test_params_validation():
    with pytest.raises(ValueError):
        SlpaParams(iterations=0)
    with pytest.raises(ValueError):
        SlpaParams(threshold=-0.1)
    with pytest.raises(ValueError):
        SlpaParams(threshold=1.5)


def test_run_is_deterministic_for_fixed_seed(monkeypatch):
    g, _ = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=1)
    params = SlpaParams(iterations=30, threshold=0.1, seed=99)
    a = run_slpa(g, params)
    b = run_slpa(g, params)
    assert a == b
    # a different seed may reach the same cover, but it must reach the run's
    # stream: the first pass's listener orders differ
    orders = []
    order = slpa.listener_order
    monkeypatch.setattr(slpa, "listener_order",
                        lambda n, rng: orders.append(order(n, rng)) or orders[-1])
    for seed in (99, 100):
        run_slpa(g, SlpaParams(iterations=1, threshold=0.1, seed=seed))
    assert orders[0] != orders[1]


def test_recovers_two_disjoint_cliques():
    g, truth = gen_planted_overlap(2, 10, 0, 1.0, 0.0, seed=0)
    assert g.n == 20
    universe = truth.nodes()
    perfect = 0
    for seed in range(6):
        cover = run_slpa(g, SlpaParams(iterations=100, threshold=0.1, seed=seed))
        if overlapping_nmi(truth, cover, universe) == pytest.approx(1.0, abs=1e-12):
            perfect += 1
    assert perfect >= 5


def test_isolated_nodes_become_singletons():
    g = build_graph(4, [(0, 1)])
    cover = run_slpa(g, SlpaParams(iterations=10, seed=0))
    assert frozenset({2}) in cover.communities
    assert frozenset({3}) in cover.communities
