"""Pairwise-constrained speaker-listener label propagation.

Constraints act at four points. Listening and repair read each node's top
label, `memory.top`, which its LabelMemory keeps current:

* initialization: must-link pairs exchange labels;
* speaker sets: must-link partners join and cannot-link partners leave each
  listener's speaker set;
* listening: a listener rejects every received label that is the current top
  label of one of its cannot-link partners. A PartnerTops index, built once
  per run after initialization, holds each constrained node's multiset of
  partners' tops, so the check is one lookup; the pass and every repair step
  that moves a constrained node's top (cannot-link deletions, label merges)
  update it; must-link repair reads it too, and the label merge looks up
  in it, per candidate link, whether a cannot-link separates the two label
  groups;
* repair, after every REPAIR_EVERY-th pass and after the last: top labels
  that a must-link pair joins and no cannot-link pair separates merge into
  one; in each must-link pair whose tops still differ, one endpoint is
  granted the partner's top label as a second membership, at the highest
  count that keeps its own top; labels shared across a cannot-link pair are
  stripped from one side.

The cover then comes from the same post-processing as the unsupervised
algorithm. With an empty constraint store every step reduces exactly to the
unsupervised algorithm, including the random stream it consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .constraints import ConstraintStore, Relation
from .graph import Cover, Graph, _collector_paused
from .slpa import LabelMemory, PartnerTops, SlpaParams, post_process
from .slpa import evaluation_pass as constrained_evaluation_pass

# The repair runs after every REPAIR_EVERY-th pass and once more after the
# last, so a run of at most REPAIR_EVERY passes repairs once. On criterion
# 4's instance at a 5% budget, this schedule scored a mean NMI of 0.408
# against 0.282 for a single repair after the last pass.
REPAIR_EVERY = 5


@dataclass
class RepairReport:
    """Counters from the constraint-processing step, summed over repair runs.

    ml_exchanges counts the must-link grants that added at least one
    occurrence of the partner's top; a grant of zero, to a receiver that
    cannot hold more of the label without moving its own top, is not
    counted. ml_blocked_transfers counts the grants refused because a
    cannot-link partner of the receiver tops on the label."""

    ml_exchanges: int = 0
    ml_blocked_transfers: int = 0
    cl_deletions: int = 0
    cl_guard_exceptions: int = 0
    label_merges: int = 0


def init_constrained(g: Graph, ml_pairs: list[tuple[int, int]]) -> list[LabelMemory]:
    """Unique label per node, then each must-link pair of ml_pairs, in order,
    exchanges labels: both nodes gain the partner's label with count 1."""
    memories = [LabelMemory(v) for v in range(g.n)]
    for u, v in ml_pairs:
        memories[u].add(v)
        memories[v].add(u)
    return memories


def constrained_speaker_set(g: Graph, store: ConstraintStore, listener: int) -> list[int]:
    """(neighbors ∪ must-link partners) − cannot-link partners − listener,
    sorted; for an unconstrained listener, a list equal to its adjacency."""
    ml = store.partners[Relation.MUST_LINK].get(listener, ())
    cl = store.partners[Relation.CANNOT_LINK].get(listener, ())
    return sorted(set(g.adjacency[listener]).union(ml).difference(cl, (listener,)))


def merge_linked_labels(memories: list[LabelMemory], ml_pairs: list[tuple[int, int]],
                        report: RepairReport, partner_tops: PartnerTops) -> set[int]:
    """Merge top labels that a must-link of ml_pairs joins and no cannot-link separates.

    A must-link pair whose endpoints top on labels a and b links a and b.
    Linked label pairs are taken by descending count of linking must-links,
    then ascending labels, and each joins its two label groups unless a
    cannot-link separates them: unless a holder of one group (a node with
    cannot-link partners, topping on one of its labels) has a partner
    topping on a label of the other. Each link asks this, by one lookup in
    partner_tops, of the holders of the group that has fewer. Every memory
    then holds each group's occurrences under the group's smallest label. A
    renamed memory whose top moved is reported to partner_tops (a rename
    can re-elect a different label, so the index's keys cannot simply be
    renamed). Returns the renamed nodes."""
    links: dict[tuple[int, int], int] = {}
    for u, v in ml_pairs:
        a, b = memories[u].top, memories[v].top
        if a != b:
            key = (a, b) if a < b else (b, a)
            links[key] = links.get(key, 0) + 1
    labels = {label: {label} for pair in links for label in pair}
    holders: dict[int, list[int]] = {label: [] for label in labels}
    blocked = partner_tops.blocked
    for v in blocked:
        top = memories[v].top
        if top in holders:
            holders[top].append(v)
    parent: dict[int, int] = {}

    def group(label: int) -> int:
        while label in parent:
            label = parent[label]
        return label

    for a, b in sorted(links, key=lambda pair: (-links[pair], pair)):
        a, b = group(a), group(b)
        if a == b:
            continue
        few, other = (a, b) if len(holders[a]) <= len(holders[b]) else (b, a)
        other_labels = labels[other]
        if any(not blocked[v].keys().isdisjoint(other_labels) for v in holders[few]):
            continue
        low, high = (a, b) if a < b else (b, a)
        parent[high] = low
        report.label_merges += 1
        labels[low] |= labels.pop(high)
        holders[low] += holders.pop(high)
    if not parent:
        return set()
    targets = {label: group(label) for label in parent}
    renamed: set[int] = set()
    for v, memory in enumerate(memories):
        top = memory.top
        if memory.rename(targets):
            renamed.add(v)
            partner_tops.moved(v, top, memory.top)
    return renamed


def repair_must_link(memories: list[LabelMemory], ml_pairs: list[tuple[int, int]],
                     report: RepairReport, partner_tops: PartnerTops) -> None:
    """Grant one endpoint of each must-link pair of ml_pairs whose top labels
    differ, in order, the partner's top label as a membership.

    The node whose top holds the smaller share of its memory (the lower id on
    a tie) receives the partner's top label, raised to the highest count that
    keeps its own top: its top's count, less one when the granted label has
    the lower id and would take a tie. So no top moves, and a receiver whose
    top has count 1 gets no occurrence of a lower label. The partner
    receives instead only if that grant is blocked: a grant to a node is
    blocked when one of that node's cannot-link partners tops on the label,
    that is, when the label is in the node's multiset in partner_tops.blocked."""
    blocked = partner_tops.blocked
    for u, v in ml_pairs:
        mu, mv = memories[u], memories[v]
        top_u, top_v = mu.top, mv.top
        if top_u == top_v:
            continue
        if mu.counts[top_u] * mv.total <= mv.counts[top_v] * mu.total:
            order = ((u, top_v), (v, top_u))
        else:
            order = ((v, top_u), (u, top_v))
        for receiver, label in order:
            if label in blocked.get(receiver, ()):
                report.ml_blocked_transfers += 1
                continue
            memory = memories[receiver]
            counts, top = memory.counts, memory.top
            grant = counts[top] - (label < top) - counts.get(label, 0)
            if grant:
                report.ml_exchanges += 1
                memory.add(label, grant)
            break


def _support(label: int, node: int, speakers: list[list[int]],
             memories: list[LabelMemory]) -> tuple[int, int]:
    """Share of node's speakers that top on label, as (count, speakers)."""
    node_speakers = speakers[node]
    return sum(1 for u in node_speakers if memories[u].top == label), len(node_speakers)


def repair_cannot_link(memories: list[LabelMemory], partner_tops: PartnerTops,
                       rng: random.Random, report: RepairReport,
                       pairs: list[tuple[int, int]],
                       speakers: list[list[int]]) -> None:
    """Strip labels shared across each cannot-link pair in `pairs`, in order.

    Each common label is deleted entirely from one endpoint: the one with the
    smaller share of speakers topping on the label, then the one holding it
    with the smaller count, then one chosen uniformly at random. A node
    holding only that one label keeps it and the deletion falls to the
    partner; if both would be emptied the pair stays in violation and the
    guard counter increments. A deletion that moves the loser's top is
    reported to partner_tops."""
    for u, v in pairs:
        mu, mv = memories[u], memories[v]
        if mu.counts.keys().isdisjoint(mv.counts.keys()):
            continue
        for label in sorted(mu.counts.keys() & mv.counts.keys()):
            # cross-multiplied shares, so that no float comparison decides
            (su, nu), (sv, nv) = (_support(label, u, speakers, memories),
                                  _support(label, v, speakers, memories))
            cu, cv = (su * nv, mu.counts[label]), (sv * nu, mv.counts[label])
            if cu < cv:
                loser, other = u, v
            elif cv < cu:
                loser, other = v, u
            elif rng.randrange(2) == 0:
                loser, other = u, v
            else:
                loser, other = v, u
            if len(memories[loser].counts) == 1:
                loser, other = other, loser
                if len(memories[loser].counts) == 1:
                    report.cl_guard_exceptions += 1
                    continue
            memory = memories[loser]
            top = memory.top
            memory.remove(label)
            partner_tops.moved(loser, top, memory.top)
            report.cl_deletions += 1


@_collector_paused
def run_pcslpa_report(g: Graph, store: ConstraintStore,
                      params: SlpaParams) -> tuple[Cover, RepairReport]:
    """Constrained pipeline returning the cover plus repair counters.

    init → `iterations` constrained passes, repairing after every
    REPAIR_EVERY-th pass and after the last (merge linked labels, one-way
    must-link grants, cannot-link repair) → the post-processing that the
    unsupervised algorithm ends in. Deterministic for fixed inputs and
    seed. Runs with the cyclic garbage collector paused, as selection does:
    it builds no reference cycle."""
    rng = random.Random(params.seed)
    cl_partners = store.partners[Relation.CANNOT_LINK]
    ml_pairs, cl_pairs = ([(u, v) for u in sorted(partners) for v in sorted(partners[u]) if u < v]
                          for partners in (store.partners[Relation.MUST_LINK], cl_partners))
    memories = init_constrained(g, ml_pairs)
    partner_tops = PartnerTops(cl_partners, memories)
    speakers = [constrained_speaker_set(g, store, v) for v in range(g.n)]
    report = RepairReport()
    # label-set size of each node after the previous repair; 0 before the
    # first, which no memory has, so the first repair counts every node
    widths = [0] * g.n

    for i in range(1, params.iterations + 1):
        constrained_evaluation_pass(speakers, memories, partner_tops, rng)
        final = i == params.iterations
        if not final and i % REPAIR_EVERY:
            continue
        # A repair leaves cannot-link pairs disjoint (guard cases aside), so
        # only a node that gains a label can share one again: one the merge
        # renames, or one whose label count changed (passes and grants only
        # add labels; a rename can keep the count, so the merge returns it).
        gained = merge_linked_labels(memories, ml_pairs, report, partner_tops)
        repair_must_link(memories, ml_pairs, report, partner_tops)
        gained.update(v for v, width in enumerate(widths) if len(memories[v].counts) != width)
        if final or len(gained) == g.n:
            pairs = cl_pairs
        else:
            # the pairs touching gained, read from the partner index
            pairs = sorted({(v, p) if v < p else (p, v)
                            for v in gained for p in cl_partners.get(v, ())})
        repair_cannot_link(memories, partner_tops, rng, report, pairs, speakers)
        widths = [len(memory.counts) for memory in memories]
    return post_process(memories, params.threshold), report
