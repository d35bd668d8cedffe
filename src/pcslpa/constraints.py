"""Pairwise constraints: storage, ground-truth oracles, and budgeted selection.

Selection interleaves random pair queries with forbidden-triad closure: once
two must-link pairs (a,b) and (a,c) exist, the unresolved pair (b,c) is an
open triad that must itself be put to the oracle, because must-link is not
transitive when communities overlap. The store keeps each pair once, in its
partner index, and builds the set of open pairs when it is read, once per
closure round, from the must-links stored since the previous read.

Each round, random or closure, is stored through the store's one insertion
path, `ConstraintStore.add_pairs`, in one call that asks the oracle about
each pair just before storing it. The random sampler draws its indices by
the rejection loop that CPython's `Random.randrange` runs, so it consumes
the same random stream and picks the same pairs as `randrange` would.
"""

from __future__ import annotations

import enum
import logging
import random
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap
from operator import itemgetter

from .graph import Cover, Graph, IdMap, ParseError, _iter_lines, _open_sink

logger = logging.getLogger(__name__)


class Relation(enum.Enum):
    MUST_LINK = "ML"
    CANNOT_LINK = "CL"


def canonical_pair(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"constraint pair must join distinct nodes, got ({u},{v})")
    return (u, v) if u < v else (v, u)


class ConstraintStore:
    """Must-link / cannot-link pairs plus a query ledger.

    partners, the one record of the pairs, maps each relation to each node's
    set of partners. ml and cl build fresh sets of its canonical pairs (low
    id first) when read. A pair can carry only one relation; inserting the
    opposite relation raises. Every insertion counts one query.

    add_pairs is the one insertion path: it stores a round of pairs in one
    loop, and add(u, v, relation) is its one-pair call. open_pairs is every
    open triad's pair: (b,c) with a common must-link partner and no stored
    relation. It is built when read, from the must-links stored since the
    previous read: add_pairs only drops each stored pair from the set and
    records each must-link (a,b) as a new hub b of a and a of b. A pair
    becomes open only through a new must-link at one of its ends, so the
    read pairs each node x that has new hubs with the must-link partners of
    those hubs, less x and the nodes already related to x.
    """

    def __init__(self) -> None:
        self.queries_used = 0
        self.partners: dict[Relation, dict[int, set[int]]] = {
            Relation.MUST_LINK: {}, Relation.CANNOT_LINK: {}}
        # open pairs as of the last read, less those stored since, and each
        # node's must-link partners (its new hubs) added since
        self._open: set[tuple[int, int]] = set()
        self._new_hubs: defaultdict[int, list[int]] = defaultdict(list)

    def _pairs(self, relation: Relation) -> set[tuple[int, int]]:
        return {(u, v) for u, vs in self.partners[relation].items() for v in vs if u < v}

    @property
    def ml(self) -> set[tuple[int, int]]:
        return self._pairs(Relation.MUST_LINK)

    @property
    def cl(self) -> set[tuple[int, int]]:
        return self._pairs(Relation.CANNOT_LINK)

    def add(self, u: int, v: int, relation: Relation) -> None:
        self.add_pairs([canonical_pair(u, v)], [relation])

    def add_pairs(self, pairs: Iterable[tuple[int, int]], relations: Iterable[Relation]) -> None:
        """Store each canonical pair (low id first) with its relation, in order.

        A pair that is not canonical, already stored, or stored with the
        opposite relation raises ValueError; the pairs before it stay stored
        and counted."""
        ml_partners = self.partners[Relation.MUST_LINK]
        cl_partners = self.partners[Relation.CANNOT_LINK]
        open_discard, new_hubs = self._open.discard, self._new_hubs
        must_link = Relation.MUST_LINK
        for pair, relation in zip(pairs, relations):
            a, b = pair
            if a >= b:
                raise ValueError(f"pair {pair} is not canonical")
            if relation is must_link:
                partners, opposite = ml_partners, cl_partners
            else:
                partners, opposite = cl_partners, ml_partners
            if b in opposite.get(a, ()):
                raise ValueError(f"pair {pair} already holds the opposite relation")
            pa = partners.get(a)
            if pa is None:
                pa = partners[a] = set()
            elif b in pa:
                raise ValueError(f"pair {pair} already stored")
            pb = partners.get(b)
            if pb is None:
                pb = partners[b] = set()
            pa.add(b)
            pb.add(a)
            self.queries_used += 1
            open_discard(pair)
            if relation is must_link:
                new_hubs[a].append(b)
                new_hubs[b].append(a)

    @property
    def open_pairs(self) -> set[tuple[int, int]]:
        """The canonical pairs of every open triad, brought up to date from
        the must-links stored since the previous read."""
        open_pairs = self._open
        new_hubs, self._new_hubs = self._new_hubs, defaultdict(list)
        ml_partners = self.partners[Relation.MUST_LINK]
        cl_partners = self.partners[Relation.CANNOT_LINK]
        for x, hubs in new_hubs.items():
            # every y that a new hub of x joins to x, less those related to x
            reach = set().union(*[ml_partners[h] for h in hubs])
            reach.difference_update(ml_partners[x], cl_partners.get(x, ()))
            reach.discard(x)
            open_pairs.update([(x, y) if x < y else (y, x) for y in reach])
        return open_pairs

    def __contains__(self, pair: tuple[int, int]) -> bool:
        """Whether the canonical pair carries a stored relation."""
        return any(pair[1] in partners.get(pair[0], ()) for partners in self.partners.values())

    def __repr__(self) -> str:
        return f"ConstraintStore(ml={len(self.ml)}, cl={len(self.cl)}, queries={self.queries_used})"


class Oracle:
    """Supervision source answering pairwise queries.

    covered_nodes() bounds which nodes may be queried; None means every node
    is eligible.
    """

    def answer(self, u: int, v: int) -> Relation:
        raise NotImplementedError

    def covered_nodes(self) -> frozenset[int] | None:
        return None


class GroundTruthOracle(Oracle):
    """Noiseless oracle simulated from a ground-truth cover: must-link iff the
    two nodes share at least one community."""

    def __init__(self, truth: Cover):
        self._memberships = {v: frozenset(truth.memberships(v)) for v in truth.nodes()}
        self._covered = frozenset(self._memberships)

    def answer(self, u: int, v: int) -> Relation:
        if u == v:
            raise ValueError("oracle queries require two distinct nodes")
        mu = self._memberships.get(u)
        mv = self._memberships.get(v)
        if mu is None:
            raise ValueError(f"node {u} belongs to no ground-truth community")
        if mv is None:
            raise ValueError(f"node {v} belongs to no ground-truth community")
        return Relation.CANNOT_LINK if mu.isdisjoint(mv) else Relation.MUST_LINK

    def covered_nodes(self) -> frozenset[int]:
        return self._covered


@dataclass(frozen=True)
class Budget:
    """Query budget as a fraction of the n·(n−1)/2 pairs of the n eligible
    nodes, those the oracle can answer for (the ground truth's covered
    nodes), since selection draws only among them."""

    pct: float
    max_queries: int

    def __post_init__(self):
        if not 0.0 <= self.pct <= 1.0:
            raise ValueError("budget fraction must lie in [0, 1]")
        if self.max_queries < 0:
            raise ValueError("max_queries must be non-negative")

    @classmethod
    def from_fraction(cls, pct: float, n_nodes: int) -> "Budget":
        """floor(pct * n(n-1)/2) for n = n_nodes eligible nodes, with pct read
        at decimal precision so that e.g. pct=0.01, n=1000 gives exactly 4995
        (float multiply can round an integral product below its true value)."""
        if n_nodes < 0:
            raise ValueError("node count must be non-negative")
        total = n_nodes * (n_nodes - 1) // 2
        max_q = int(Fraction(str(pct)) * total)
        return cls(pct=pct, max_queries=max_q)


def find_forbidden_triads(store: ConstraintStore, limit: int | None = None) -> list[tuple[int, int]]:
    """The open pairs (b,c): some a is must-linked to both b and c, and (b,c)
    carries no stored relation. Sorted canonical pairs, no duplicates; with
    a limit, only the first limit of them. Reading store.open_pairs brings
    the set up to date from the must-links stored since the previous read;
    see ConstraintStore."""
    open_pairs = store.open_pairs
    if limit is None or limit >= len(open_pairs):
        return sorted(open_pairs)
    # only pairs whose low end is at most the limit-th pair's need sorting
    last = sorted(map(itemgetter(0), open_pairs))[limit - 1]
    pairs = sorted([pair for pair in open_pairs if pair[0] <= last])
    del pairs[limit:]
    return pairs


def _sample_unqueried_pairs(eligible: list[int], count: int,
                            store: ConstraintStore, rng: random.Random) -> list[tuple[int, int]]:
    """Up to count distinct eligible pairs not yet in the store, drawn uniformly."""
    n = len(eligible)
    remaining = n * (n - 1) // 2 - store.queries_used
    count = min(count, remaining)
    if count <= 0:
        return []
    ml, cl = store.partners[Relation.MUST_LINK], store.partners[Relation.CANNOT_LINK]
    if count * 2 >= remaining:
        # dense request: materialize the leftover pool
        pool = [(u, v) for i, u in enumerate(eligible) for v in eligible[i + 1:]
                if v not in ml.get(u, ()) and v not in cl.get(u, ())]
        return rng.sample(pool, count)
    # each index is rng.randrange(n) by its own rejection loop, the one
    # CPython runs: the same words, so the same pairs
    getrandbits, k = rng.getrandbits, n.bit_length()
    picked: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(picked) < count:
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        if i == j:
            continue
        # eligible ascends, so the lower index holds the lower id
        u, v = pair = (eligible[i], eligible[j]) if i < j else (eligible[j], eligible[i])
        if pair in seen or v in ml.get(u, ()) or v in cl.get(u, ()):
            continue
        seen.add(pair)
        picked.append(pair)
    return picked


def select_constraints(g: Graph, oracle: Oracle, budget: Budget,
                       rng: random.Random | None = None) -> ConstraintStore:
    """Budgeted constraint selection: random seeding plus triad closure.

    Rounds alternate until the budget or the eligible pair pool runs out:
    (1) query up to half the budget (max_queries // 2, at least 1) in fresh
    random pairs among oracle-covered nodes; (2) repeatedly query all open
    forbidden triads until closure. Every oracle call, closure included, costs
    budget.
    No pair is ever queried twice. A closure round that the remaining budget
    cuts takes the first open pairs in sorted order. Each round goes to
    one add_pairs call, which takes the oracle's answers lazily, one per
    pair, in order.
    """
    if rng is None:
        rng = random.Random()
    store = ConstraintStore()
    covered = oracle.covered_nodes()
    eligible = sorted(range(g.n)) if covered is None else sorted(v for v in covered if 0 <= v < g.n)
    max_q = budget.max_queries
    if max_q == 0 or len(eligible) < 2:
        return store
    total_pairs = len(eligible) * (len(eligible) - 1) // 2
    chunk = max(1, max_q // 2)

    while store.queries_used < min(max_q, total_pairs):
        pairs = _sample_unqueried_pairs(eligible, min(chunk, max_q - store.queries_used), store, rng)
        store.add_pairs(pairs, starmap(oracle.answer, pairs))
        while store.queries_used < max_q:
            # pairs opened while a round is queried wait for the next round
            pairs = find_forbidden_triads(store, max_q - store.queries_used)
            if not pairs:
                break
            store.add_pairs(pairs, starmap(oracle.answer, pairs))
    return store


def write_constraints(store: ConstraintStore, sink, id_map: IdMap) -> None:
    """One "u v ML|CL" triple per line, sorted by canonical internal pair:
    nodes in id order, each with its higher-id partners in order."""
    tokens = [id_map.external(v) for v in range(len(id_map))]
    ml_partners = store.partners[Relation.MUST_LINK]
    cl_partners = store.partners[Relation.CANNOT_LINK]

    def lines():
        for u, tu in enumerate(tokens):
            ml_u = ml_partners.get(u, ())
            partners = sorted([*ml_u, *cl_partners.get(u, ())])
            for v in partners[bisect_right(partners, u):]:
                yield f"{tu} {tokens[v]} {'ML' if v in ml_u else 'CL'}\n"

    text = "".join(lines())
    with _open_sink(sink) as f:
        f.write(text)


def load_constraints(source, id_map: IdMap) -> ConstraintStore:
    store = ConstraintStore()
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"expected 'u v ML|CL', got {line!r}", line_no)
        tu, tv, tag = tokens
        if tag not in ("ML", "CL"):
            raise ParseError(f"unknown relation tag {tag!r}", line_no)
        try:
            store.add(id_map.internal(tu), id_map.internal(tv), Relation(tag))
        except (KeyError, ValueError) as e:
            # an unknown token, or a self, repeated or conflicting pair
            raise ParseError(e.args[0], line_no) from e
    return store
