"""Unsupervised speaker-listener label propagation.

Every node keeps a memory of label occurrence counts, seeded with its own
unique label (its node id). Each pass, every node listens once, in shuffled
order: its neighbors each speak one label drawn proportionally to their
memory frequencies, and the listener adds the most popular received label to
its memory. Thresholding the final per-node label distributions yields an
overlapping cover. A memory also keeps its top label, the most frequent one
(the lowest id on a tie), as `memory.top`. The same pass loop runs the
constrained variant (pcslpa.constrained), which supplies its own speaker
lists and cannot-link partners, and whose listeners reject the top labels of
those partners.

A speaker's draw reads its memory's draw tape: each label `count` times in
insertion order, padded with None to 2**k entries, k = total.bit_length().
The speaker reads the entry at getrandbits(k) until it is a label, which is
the rejection loop that CPython's `Random.randrange(total)` runs, so a draw
costs O(1) expected reads, consumes the same random stream as `randrange`,
and speaks the label whose span of the running counts holds the draw.

The pass holds the tapes and their bit lengths k in per-pass arrays, built
at its start, where it also builds every missing tape. It does the
listener's one-occurrence add inline, keeping the listener's tape and k
current, and shuffles the listeners with `Random.shuffle`'s loop written
out, drawing the same words; the shuffle carries the bit length of its
bound down across powers of two rather than recomputing it per position.
Only the pass writes tapes: `LabelMemory.add`, `remove` and `rename`, which
run outside it (initialization and repairs), drop a built tape, and the next
pass builds it afresh at its start, in the counts' insertion order.

The listener votes as it hears: it counts the labels, skipping those
blocked by cannot-link partners, and keeps the best count, the first label
to reach it and how many labels hold it. A label that holds the best count
alone wins without a draw; only on a tie does it build the list of tied
labels, in first-heard order, and draw one. Counts rise by one, so every
label holding the best count at the end set it or reached it, and the
number kept is the length of that list.

A PartnerTops index keeps, for each node with cannot-link partners, the
multiset of its partners' current tops. It is updated wherever a constrained
node's top moves, so a listener's check of a received label is one lookup
rather than a walk over its partners; the unsupervised run passes an empty
index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Cover, Graph


class LabelMemory:
    """Multiset of labels with occurrence counts, never empty.

    total tracks the sum of the counts and top the label with the maximal
    count, the lowest label id on a tie; add, remove and rename keep both
    current. tape is the draw tape, or None until draw_tape() builds it: each
    label `count` times in insertion order, padded with None to 2**k entries,
    k = total.bit_length(), so tape[x] is None exactly when x >= total. Only
    the evaluation pass keeps a tape current; add, remove and rename drop it.
    """

    __slots__ = ("counts", "total", "top", "tape")

    def __init__(self, label: int):
        self.counts: dict[int, int] = {label: 1}
        self.total = 1
        self.top = label
        self.tape: list[int | None] | None = None

    def draw_tape(self) -> list[int | None]:
        """Build and keep the draw tape and return it."""
        tape: list[int | None] = []
        for label, count in self.counts.items():
            tape += [label] * count
        total = self.total
        tape += [None] * ((1 << total.bit_length()) - total)
        self.tape = tape
        return tape

    def add(self, label: int, k: int = 1) -> None:
        """Add k occurrences of label; k = 0 changes nothing."""
        if k <= 0:
            if k < 0:
                raise ValueError("cannot add a negative count")
            return
        counts = self.counts
        counts[label] = counts.get(label, 0) + k
        self.total += k
        self.tape = None
        self._contest(label)

    def remove(self, label: int) -> None:
        """Delete all occurrences of label, which must not be the only one."""
        if len(self.counts) == 1:
            raise ValueError("cannot remove the last label of a memory")
        self.total -= self.counts.pop(label)
        self.tape = None
        if label == self.top:
            self._elect()

    def rename(self, targets: dict[int, int]) -> bool:
        """Move the occurrences of each label in targets to its target label,
        which must not itself be renamed; report whether any label moved."""
        counts = self.counts
        if counts.keys().isdisjoint(targets.keys()):
            return False
        moved = [label for label in counts if label in targets]
        for label in moved:
            target = targets[label]
            counts[target] = counts.get(target, 0) + counts.pop(label)
        self.tape = None
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
    """For each node that partners holds, the multiset of its cannot-link
    partners' current top labels, {label: partners topping on it}, in blocked.

    A label is blocked for node v exactly when it is a key of blocked[v]; a
    node that partners does not hold has no entry. The pass, must-link
    repair and the label merge read blocked directly. Code that moves the
    top of a node with partners reports the move through moved(), which
    updates the multisets of that node's partners. Built from no partners,
    the index blocks nothing.
    """

    __slots__ = ("partners", "blocked")

    def __init__(self, partners: dict[int, set[int]], memories: list[LabelMemory]):
        self.partners = partners
        self.blocked: dict[int, dict[int, int]] = {}
        for v, node_partners in partners.items():
            tops: dict[int, int] = {}
            for p in node_partners:
                top = memories[p].top
                tops[top] = tops.get(top, 0) + 1
            self.blocked[v] = tops

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
    probability that survives post-processing."""

    iterations: int = 100
    threshold: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


def init_memories(g: Graph) -> list[LabelMemory]:
    """One memory per node, holding its own unique label with count 1."""
    return [LabelMemory(v) for v in range(g.n)]


def listener_order(n: int, rng: random.Random) -> list[int]:
    """The pass's listeners: range(n) shuffled as `rng.shuffle` shuffles it.

    The shuffle is Fisher-Yates with `Random._randbelow` inlined: position i
    swaps with getrandbits(k), k = (i + 1).bit_length(), redrawn while it
    exceeds i, which consumes the random stream word for word as
    `rng.shuffle` does. k starts at n.bit_length() and is carried down, one
    bit each time i falls below 2**(k - 1) - 1.
    """
    order = list(range(n))
    getrandbits = rng.getrandbits
    k = n.bit_length()
    edge = (1 << k >> 1) - 1
    for i in range(n - 1, 0, -1):
        if i < edge:
            k -= 1
            edge >>= 1
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return order


def evaluation_pass(speakers: list[list[int]], memories: list[LabelMemory],
                    partner_tops: PartnerTops, rng: random.Random) -> None:
    """One pass: every listener listens once, in the order of listener_order.

    Each listener v hears one spoken label from every node in speakers[v],
    drops each label that is the current top (LabelMemory.top) of one of its
    cannot-link partners (one lookup in partner_tops), and adds the most
    popular remaining label to its memory, reporting a move of its top to
    partner_tops. Labels tied for most popular are ranked in first-heard
    order and one is drawn uniformly. A listener with no speakers, or whose
    labels are all dropped, is unchanged. With adjacency lists as speakers
    and an empty index this is the unsupervised pass.

    The pass holds the draw tapes, building those that add, remove or rename
    dropped since the last pass, and their bit lengths k in per-pass arrays.
    Each speaker's draw is inlined: `rng.randrange(total)` by its own
    rejection loop, which reads the tape at getrandbits(k) until the entry
    is a label. The listener counts labels as it hears them, checks a label
    against partner_tops only when it first hears it, and keeps the best
    count, the first label to reach it and the number of labels that hold
    it. It takes that label without a draw when it holds the best count
    alone; only on a tie does it list the tied labels, in first-heard order,
    and draw one with randrange. It adds its one occurrence inline, to the
    counts, total and top as `LabelMemory.add(label)` does, and keeps its
    tape and k current.
    """
    getrandbits, randrange = rng.getrandbits, rng.randrange
    blocked, moved = partner_tops.blocked, partner_tops.moved
    unblocked: dict[int, int] = {}
    tapes = [memory.tape or memory.draw_tape() for memory in memories]
    bits = [memory.total.bit_length() for memory in memories]
    for v in listener_order(len(speakers), rng):
        node_blocked = blocked.get(v, unblocked)
        heard: dict[int, int] = {}
        best = 0
        for u in speakers[v]:
            tape = tapes[u]
            k = bits[u]
            label = tape[getrandbits(k)]
            while label is None:
                label = tape[getrandbits(k)]
            if label in heard:
                count = heard[label] + 1
                heard[label] = count
                if count > best:
                    best, winner, ties = count, label, 1
                elif count == best:
                    ties += 1
            elif label not in node_blocked:
                heard[label] = 1
                if not best:
                    best, winner, ties = 1, label, 1
                elif best == 1:
                    ties += 1
        if not best:
            continue
        if ties == 1:
            label = winner
        else:
            winners = [label for label, count in heard.items() if count == best]
            label = winners[randrange(ties)]
        # LabelMemory.add(label) for one occurrence, on the pass's tape
        memory = memories[v]
        counts = memory.counts
        tape = tapes[v]
        total = memory.total
        count = counts.get(label, 0)
        counts[label] = count + 1
        tape.insert(tape.index(label) + count if count else total, label)
        total += 1
        memory.total = total
        if total & (total - 1):
            tape.pop()
        else:
            tape += [None] * (total - 1)
            bits[v] = total.bit_length()
        top = memory.top
        if label != top:
            top_count = counts[top]
            if count >= top_count or (count + 1 == top_count and label < top):
                memory.top = label
                if node_blocked:
                    moved(v, top, label)


def post_process(memories: list[LabelMemory], threshold: float) -> Cover:
    """Threshold label distributions and group nodes by retained label.

    A label survives at a node iff count/total >= threshold. A node whose
    labels would all be deleted keeps its single top label instead, so every
    node lands in at least one community.
    """
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
        evaluation_pass(g.adjacency, memories, partner_tops, rng)
    return post_process(memories, params.threshold)
