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
The memory keeps those running counts in a draw table, built when first
needed after add, remove or rename dropped it, so a draw costs a bisection,
O(log width), and consumes the same random stream as `randrange`.
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
    current. table is the draw table, (labels, running counts) in insertion
    order, or None until draw_table() builds it; add, remove and rename,
    the only code that changes counts, drop it.
    """

    __slots__ = ("counts", "total", "top", "table")

    def __init__(self, label: int):
        self.counts: dict[int, int] = {label: 1}
        self.total = 1
        self.top = label
        self.table: tuple[list[int], list[int]] | None = None

    def draw_table(self) -> tuple[list[int], list[int]]:
        """Build and keep the draw table: the labels in insertion order and
        their running counts, so label i holds the draws x with
        cumulative[i-1] <= x < cumulative[i]."""
        counts = self.counts
        self.table = (list(counts), list(accumulate(counts.values())))
        return self.table

    def add(self, label: int, k: int = 1) -> None:
        self.counts[label] = self.counts.get(label, 0) + k
        self.total += k
        self.table = None
        self._contest(label)

    def remove(self, label: int) -> None:
        """Delete all occurrences of label, which must not be the only one."""
        if len(self.counts) == 1:
            raise ValueError("cannot remove the last label of a memory")
        self.total -= self.counts.pop(label)
        self.table = None
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
        self.table = None
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
                    cl_partners: dict[int, set[int]], rng: random.Random,
                    schedule: str) -> None:
    """One pass over the listeners chosen by `schedule`.

    Each listener v collects one spoken label from every node in speakers[v],
    drops each label that is the current top (LabelMemory.top) of one of its
    cannot-link partners (cl_partners[v]), and adds the most popular
    remaining label to its memory. A listener with no speakers, or whose
    labels are all dropped, is unchanged. With adjacency lists as speakers
    and no partners this is the unsupervised pass.

    Each speaker's draw is inlined: `rng.randrange(total)` by its own
    rejection loop over getrandbits, then a bisection of the draw table.
    """
    getrandbits = rng.getrandbits
    for v in listener_order(len(speakers), schedule, rng):
        node_speakers = speakers[v]
        if not node_speakers:
            continue
        received = []
        for u in node_speakers:
            memory = memories[u]
            labels, cumulative = memory.table or memory.draw_table()
            total = memory.total
            k = total.bit_length()
            x = getrandbits(k)
            while x >= total:
                x = getrandbits(k)
            received.append(labels[bisect_right(cumulative, x)])
        partners = cl_partners.get(v)
        if partners:
            blocked = {memories[p].top for p in partners}
            received = [label for label in received if label not in blocked]
            if not received:
                continue
        memories[v].add(listen(received, rng))


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
    for _ in range(params.iterations):
        evaluation_pass(g.adjacency, memories, {}, rng, params.listener_schedule)
    return post_process(memories, params.threshold)
