"""Unsupervised speaker-listener label propagation.

Every node keeps a memory of label occurrence counts, seeded with its own
unique label (its node id). Each pass, every node listens once: its neighbors
each speak one label drawn proportionally to their memory frequencies, and the
listener adds the most popular received label to its memory. Thresholding the
final per-node label distributions yields an overlapping cover. A memory also
keeps its top label, the most frequent one (the lowest id on a tie), as
`memory.top`. The same pass loop runs the constrained variant
(pcslpa.constrained), which supplies its own speaker lists and cannot-link
partners, and whose listeners reject the top labels of those partners.

A speaker draws x uniformly below its memory's total, by the rejection loop
that CPython's `Random.randrange(total)` runs (getrandbits of
total.bit_length() bits until one falls below total), and speaks the label
whose span of the running counts, in the memory's insertion order, holds x.
The memory keeps those running counts, with the total and its bit length, in
a draw entry, built when first needed after add, remove or rename dropped
it, so a draw costs a bisection, O(log width), and consumes the same random
stream as `randrange`.

A PartnerTops index keeps, for each node with cannot-link partners, the
multiset of its partners' current tops. It is updated wherever a constrained
node's top moves, so a listener's check of a received label is one lookup
rather than a walk over its partners; the unsupervised run passes an empty
index.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .graph import Cover, Graph

SCHEDULE_SWEEP = "sweep"
SCHEDULE_UNIFORM = "uniform_draws"


class LabelMemory:
    """Multiset of labels with occurrence counts, never empty.

    total tracks the sum of the counts and top the label with the maximal
    count, the lowest label id on a tie; add, remove and rename keep both
    current. draw is the draw entry, (labels, running counts, total,
    total.bit_length()) in insertion order, or None until draw_table()
    builds it; add, remove and rename, the only code that changes counts,
    drop it.
    """

    __slots__ = ("counts", "total", "top", "draw")

    def __init__(self, label: int):
        self.counts: dict[int, int] = {label: 1}
        self.total = 1
        self.top = label
        self.draw: tuple[list[int], list[int], int, int] | None = None

    @property
    def table(self) -> tuple[list[int], list[int]] | None:
        """The draw table, (labels, running counts), or None until built."""
        draw = self.draw
        return None if draw is None else draw[:2]

    def draw_table(self) -> tuple[list[int], list[int]]:
        """Build and keep the draw entry and return its table: the labels in
        insertion order and their running counts, so label i holds the draws
        x with cumulative[i-1] <= x < cumulative[i]."""
        counts, total = self.counts, self.total
        labels, cumulative = list(counts), list(accumulate(counts.values()))
        self.draw = (labels, cumulative, total, total.bit_length())
        return labels, cumulative

    def add(self, label: int, k: int = 1) -> None:
        self.counts[label] = self.counts.get(label, 0) + k
        self.total += k
        self.draw = None
        self._contest(label)

    def remove(self, label: int) -> None:
        """Delete all occurrences of label, which must not be the only one."""
        if len(self.counts) == 1:
            raise ValueError("cannot remove the last label of a memory")
        self.total -= self.counts.pop(label)
        self.draw = None
        if label == self.top:
            self._elect()

    def rename(self, targets: dict[int, int]) -> bool:
        """Move the occurrences of each label in targets to its target label,
        which must not itself be renamed; report whether any label moved."""
        counts = self.counts
        moved = [label for label in counts if label in targets]
        if not moved:
            return False
        for label in moved:
            target = targets[label]
            counts[target] = counts.get(target, 0) + counts.pop(label)
        self.draw = None
        self._elect()
        return True

    def _contest(self, label: int) -> None:
        """Make label the top if it has a higher count, or the same count and
        a lower id."""
        counts, top = self.counts, self.top
        count, top_count = counts[label], counts[top]
        if count > top_count or (count == top_count and label < top):
            self.top = label

    def _elect(self) -> None:
        """Find the top label afresh, after it lost or changed occurrences."""
        labels = iter(self.counts)
        self.top = next(labels)
        for label in labels:
            self._contest(label)

    def __repr__(self) -> str:
        return f"LabelMemory({self.counts!r})"


class PartnerTops:
    """For each node with cannot-link partners, the multiset of its partners'
    current top labels, {label: partners topping on it}, in blocked.

    A listener rejects exactly the labels in its own multiset. Code that
    moves the top of a node with partners reports the move through moved(),
    which updates the multisets of that node's partners. Built from no
    partners, the index blocks nothing.
    """

    __slots__ = ("partners", "blocked")

    def __init__(self, partners: dict[int, set[int]], memories: list[LabelMemory]):
        self.partners = partners
        self.blocked: dict[int, dict[int, int]] = {}
        for v, node_partners in partners.items():
            if node_partners:
                tops: dict[int, int] = {}
                for p in node_partners:
                    top = memories[p].top
                    tops[top] = tops.get(top, 0) + 1
                self.blocked[v] = tops

    def blocks(self, v: int, label: int) -> bool:
        """Is label the top of one of v's cannot-link partners?"""
        tops = self.blocked.get(v)
        return tops is not None and label in tops

    def moved(self, v: int, old: int, new: int) -> None:
        """Node v's top changed from old to new (a no-op when they are equal)."""
        if old == new:
            return
        blocked = self.blocked
        for p in self.partners.get(v, ()):
            tops = blocked[p]
            k = tops[old]
            if k == 1:
                del tops[old]
            else:
                tops[old] = k - 1
            tops[new] = tops.get(new, 0) + 1


@dataclass(frozen=True)
class SlpaParams:
    """iterations: number of evaluation passes; threshold: minimum label
    probability that survives post-processing; listener_schedule: 'sweep'
    (every node listens once per pass, shuffled) or 'uniform_draws'
    (n independent uniform listener draws per pass)."""

    iterations: int = 100
    threshold: float = 0.1
    seed: int = 0
    listener_schedule: str = SCHEDULE_SWEEP

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.listener_schedule not in (SCHEDULE_SWEEP, SCHEDULE_UNIFORM):
            raise ValueError(f"unknown listener schedule {self.listener_schedule!r}")


def init_memories(g: Graph) -> list[LabelMemory]:
    """One memory per node, holding its own unique label with count 1."""
    return [LabelMemory(v) for v in range(g.n)]


def listen(received: list[int], rng: random.Random) -> int:
    """Most popular label among received; ties broken uniformly at random."""
    if not received:
        raise ValueError("listen requires at least one received label")
    counts: dict[int, int] = {}
    for label in received:
        counts[label] = counts.get(label, 0) + 1
    best = max(counts.values())
    top = [label for label, c in counts.items() if c == best]
    if len(top) == 1:
        return top[0]
    return top[rng.randrange(len(top))]


def listener_order(n: int, schedule: str, rng: random.Random) -> list[int]:
    if schedule == SCHEDULE_SWEEP:
        order = list(range(n))
        rng.shuffle(order)
        return order
    return [rng.randrange(n) for _ in range(n)]


def evaluation_pass(speakers: list[list[int]], memories: list[LabelMemory],
                    partner_tops: PartnerTops, rng: random.Random,
                    schedule: str) -> None:
    """One pass over the listeners chosen by `schedule`.

    Each listener v collects one spoken label from every node in speakers[v],
    drops each label that is the current top (LabelMemory.top) of one of its
    cannot-link partners (one lookup in partner_tops), and adds the most
    popular remaining label to its memory, reporting a move of its top to
    partner_tops. A listener with no speakers, or whose labels are all
    dropped, is unchanged. With adjacency lists as speakers and an empty
    index this is the unsupervised pass.

    Each speaker's draw is inlined: `rng.randrange(total)` by its own
    rejection loop over getrandbits, then a bisection of the draw table.
    """
    getrandbits = rng.getrandbits
    blocked = partner_tops.blocked
    for v in listener_order(len(speakers), schedule, rng):
        node_speakers = speakers[v]
        if not node_speakers:
            continue
        received = []
        for u in node_speakers:
            memory = memories[u]
            draw = memory.draw
            if draw is None:
                memory.draw_table()
                draw = memory.draw
            labels, cumulative, total, k = draw
            x = getrandbits(k)
            while x >= total:
                x = getrandbits(k)
            received.append(labels[bisect_right(cumulative, x)])
        node_blocked = blocked.get(v)
        if node_blocked:
            received = [label for label in received if label not in node_blocked]
            if not received:
                continue
        memory = memories[v]
        top = memory.top
        memory.add(listen(received, rng))
        if node_blocked and memory.top != top:
            partner_tops.moved(v, top, memory.top)


def post_process(memories: list[LabelMemory], threshold: float) -> Cover:
    """Threshold label distributions and group nodes by retained label.

    A label survives at a node iff count/total >= threshold. A node whose
    labels would all be deleted keeps its single top label instead, so every
    node lands in at least one community.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    groups: dict[int, set[int]] = {}
    for v, memory in enumerate(memories):
        total = memory.total
        kept = [label for label, count in memory.counts.items() if count / total >= threshold]
        if not kept:
            kept = [memory.top]
        for label in kept:
            groups.setdefault(label, set()).add(v)
    return Cover(groups[label] for label in sorted(groups))


def run_slpa(g: Graph, params: SlpaParams) -> Cover:
    """Full pipeline: init, `iterations` evaluation passes, post-process.

    Deterministic for a fixed graph and params (seed included).
    """
    rng = random.Random(params.seed)
    memories = init_memories(g)
    partner_tops = PartnerTops({}, memories)
    for _ in range(params.iterations):
        evaluation_pass(g.adjacency, memories, partner_tops, rng, params.listener_schedule)
    return post_process(memories, params.threshold)
