"""Pairwise constraints: storage, ground-truth oracles, and budgeted selection.

A budget is a count of oracle queries; `budget_queries` turns a fraction of
the eligible node pairs into that count, and `select_constraints` spends it.

Selection interleaves random pair queries with forbidden-triad closure: once
two must-link pairs (a,b) and (a,c) exist, the unresolved pair (b,c) is an
open triad that must itself be put to the oracle, because must-link is not
transitive when communities overlap. The store keeps each pair once, in its
partner index, and nothing else; each closure round reads its open pairs
from the must-links that the previous round stored (`find_forbidden_triads`).

Each round, random or closure, is stored through the store's one insertion
path, `ConstraintStore.add_pairs`, in one call that reads the oracle's
answers for the round (`Oracle.answers`) lazily, each just before its pair
is stored. The random sampler draws its indices by the rejection loop that
CPython's `Random.randrange` runs, so it consumes the same random stream and
picks the same pairs as `randrange` would. A dense round, one that asks for
at least half the leftover pool, runs `random.sample`'s pool algorithm
written out with that loop, so it picks the same pairs as `random.sample`
and does not depend on how a Python version implements `sample`.
"""

from __future__ import annotations

import enum
import random
from collections import defaultdict
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import repeat

from .graph import Cover, Graph, IdMap, ParseError, _collector_paused, _open_sink, _records


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
    loop, and add(u, v, relation) is its one-pair call.
    """

    def __init__(self) -> None:
        self.queries_used = 0
        self.partners: dict[Relation, dict[int, set[int]]] = {
            Relation.MUST_LINK: {}, Relation.CANNOT_LINK: {}}

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

    def add_pairs(self, pairs: Iterable[tuple[int, int]],
                  relations: Iterable[Relation]) -> list[tuple[int, int]]:
        """Store each canonical pair (low id first) with its relation, in order,
        and return the must-link pairs among them.

        A pair that is not canonical, already stored, or stored with the
        opposite relation raises ValueError; the pairs before it stay stored
        and counted."""
        ml_partners = self.partners[Relation.MUST_LINK]
        cl_partners = self.partners[Relation.CANNOT_LINK]
        must_link = Relation.MUST_LINK
        links: list[tuple[int, int]] = []
        for pair, relation in zip(pairs, relations):
            a, b = pair
            if a >= b:
                raise ValueError(f"pair {pair} is not canonical")
            if relation is must_link:
                partners, opposite = ml_partners, cl_partners
                links.append(pair)
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
        return links

    def __repr__(self) -> str:
        # each pair is in the partner sets of both its nodes
        ml, cl = (sum(map(len, self.partners[r].values())) // 2 for r in Relation)
        return f"ConstraintStore(ml={ml}, cl={cl}, queries={self.queries_used})"


class Oracle:
    """Supervision source answering pairwise queries.

    covered_nodes() is the set of nodes the oracle can answer for; selection
    draws only among them. Selection asks a whole round through answers(),
    which yields the relation of each pair once, in order, each computed as
    it is read.
    """

    def answers(self, pairs: Iterable[tuple[int, int]]) -> Iterator[Relation]:
        raise NotImplementedError

    def covered_nodes(self) -> frozenset[int]:
        raise NotImplementedError


class GroundTruthOracle(Oracle):
    """Noiseless oracle simulated from a ground-truth cover: must-link iff the
    two nodes share at least one community."""

    def __init__(self, truth: Cover):
        self._memberships = {v: frozenset(truth.memberships(v)) for v in truth.nodes()}
        self._covered = frozenset(self._memberships)

    def answers(self, pairs: Iterable[tuple[int, int]]) -> Iterator[Relation]:
        """The relation of each pair, in order, computed as it is read.

        A query of one node twice, or of a node outside the truth, raises
        ValueError when read: equal nodes first, then an uncovered u, then v."""
        get = self._memberships.get
        must_link, cannot_link = Relation.MUST_LINK, Relation.CANNOT_LINK
        for u, v in pairs:
            mu = get(u)
            mv = get(v)
            if mu is None or mv is None or u == v:
                if u == v:
                    raise ValueError("oracle queries require two distinct nodes")
                raise ValueError(f"node {u if mu is None else v} belongs to no ground-truth community")
            yield cannot_link if mu.isdisjoint(mv) else must_link

    def covered_nodes(self) -> frozenset[int]:
        return self._covered


def budget_queries(pct: float, n_nodes: int) -> int:
    """The query budget of a fraction pct of the n(n-1)/2 pairs of the
    n = n_nodes eligible nodes, those the oracle can answer for (the ground
    truth's covered nodes), since selection draws only among them.

    floor(pct * n(n-1)/2), with pct read at decimal precision so that e.g.
    pct=0.01, n=1000 gives exactly 4995 (float multiply can round an
    integral product below its true value)."""
    if not 0.0 <= pct <= 1.0:
        raise ValueError("budget fraction must lie in [0, 1]")
    if n_nodes < 0:
        raise ValueError("node count must be non-negative")
    return int(Fraction(str(pct)) * (n_nodes * (n_nodes - 1) // 2))


def find_forbidden_triads(store: ConstraintStore, links: Iterable[tuple[int, int]],
                          limit: int | None = None) -> list[tuple[int, int]]:
    """The pairs that links, stored must-links, open: each (x,y) with no
    stored relation such that (x,h) is in links, either way round, and
    (h,y) is a stored must-link. Sorted canonical pairs, no duplicates; with
    a limit, only the first limit of them.

    Open pairs are grouped by low end and come out low end by low end,
    each with its high ends sorted, until limit of them are out.

    Links (a,b) and (a,c) each open (b,c), so passing store.ml yields every
    open pair of the store; select_constraints passes the previous round's
    must-links."""
    ml_partners = store.partners[Relation.MUST_LINK]
    cl_partners = store.partners[Relation.CANNOT_LINK]
    hubs: defaultdict[int, list[int]] = defaultdict(list)
    for a, b in links:
        hubs[a].append(b)
        hubs[b].append(a)
    highs: defaultdict[int, set[int]] = defaultdict(set)
    for x, x_hubs in hubs.items():
        # every y that a hub of x joins to x, less those related to x
        reach = set().union(*[ml_partners[h] for h in x_hubs])
        reach.difference_update(ml_partners[x], cl_partners.get(x, ()))
        reach.discard(x)
        for y in reach:
            if y > x:
                highs[x].add(y)
            else:
                highs[y].add(x)
    pairs: list[tuple[int, int]] = []
    for x in sorted(highs):
        pairs.extend(zip(repeat(x), sorted(highs[x])))
        if limit is not None and len(pairs) >= limit:
            del pairs[limit:]
            break
    return pairs


def _sample_unqueried_pairs(eligible: list[int], count: int,
                            store: ConstraintStore, rng: random.Random) -> list[tuple[int, int]]:
    """Up to count distinct eligible pairs not yet in the store, drawn uniformly."""
    n = len(eligible)
    remaining = n * (n - 1) // 2 - store.queries_used
    count = min(count, remaining)
    ml, cl = store.partners[Relation.MUST_LINK], store.partners[Relation.CANNOT_LINK]
    getrandbits = rng.getrandbits
    if count * 2 >= remaining:
        # dense request: materialize the leftover pool in pair order, each
        # node's later unrelated nodes by one set difference
        later = set(eligible)
        pool: list[tuple[int, int]] = []
        for u in eligible:
            later.discard(u)
            pool.extend(zip(repeat(u), sorted(later.difference(ml.get(u, ()), cl.get(u, ())))))
        # random.sample's pool algorithm, which it runs whenever count is at
        # least half the pool, each index j < m drawn by the rejection loop
        # of sample's _randbelow: the same words, so the same pairs
        picked: list[tuple[int, int]] = []
        for m in range(len(pool), len(pool) - count, -1):
            k = m.bit_length()
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            picked.append(pool[j])
            pool[j] = pool[m - 1]
        return picked
    # each index is rng.randrange(n) by its own rejection loop, the one
    # CPython runs: the same words, so the same pairs
    k = n.bit_length()
    picked = []
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


@_collector_paused
def select_constraints(g: Graph, oracle: Oracle, max_queries: int,
                       rng: random.Random) -> ConstraintStore:
    """Constraint selection within a budget of max_queries oracle queries
    (budget_queries turns a fraction into one): random seeding plus triad
    closure.

    Rounds alternate until the budget or the eligible pair pool runs out:
    (1) query up to half the budget (max_queries // 2, at least 1) in fresh
    random pairs among oracle-covered nodes; (2) repeatedly query all open
    forbidden triads until closure. Every oracle call, closure included, costs
    budget; a negative budget raises ValueError.
    No pair is ever queried twice. A closure round that the remaining budget
    cuts takes the first open pairs in sorted order. Each round goes to
    one add_pairs call, which reads the oracle's answers for the round
    (oracle.answers) lazily, one per pair, in order.

    Each closure round queries the pairs that the previous round's
    must-links open. That is every open pair of the store: a closure round
    not cut by the budget queries every pair open before it, a cut one ends
    selection, and a random round runs only when no pair is open, so each
    pair open after a round has a must-link stored in that round.
    """
    if max_queries < 0:
        raise ValueError("max_queries must be non-negative")
    store = ConstraintStore()
    eligible = sorted(v for v in oracle.covered_nodes() if 0 <= v < g.n)
    total_pairs = len(eligible) * (len(eligible) - 1) // 2
    chunk = max(1, max_queries // 2)

    while store.queries_used < min(max_queries, total_pairs):
        count = min(chunk, max_queries - store.queries_used)
        pairs = _sample_unqueried_pairs(eligible, count, store, rng)
        links = store.add_pairs(pairs, oracle.answers(pairs))
        while store.queries_used < max_queries:
            # pairs opened while a round is queried wait for the next round
            pairs = find_forbidden_triads(store, links, max_queries - store.queries_used)
            if not pairs:
                break
            links = store.add_pairs(pairs, oracle.answers(pairs))
    return store


@_collector_paused
def write_constraints(store: ConstraintStore, sink, id_map: IdMap) -> None:
    """One "u v ML|CL" triple per line, sorted by canonical internal pair:
    nodes in id order, each with its higher-id partners in order.

    Partner v is coded 2v (must-link) or 2v+1 (cannot-link), the index of
    its line suffix "v ML|CL". Only node u's higher partners v > u are
    coded, and their codes are exactly those above 2u+1; a node's lines
    are the suffixes of its sorted codes, each after the node's token,
    written in one call."""
    tokens = [id_map.external(v) for v in range(len(id_map))]
    suffix = [f"{t} {tag}\n" for t in tokens for tag in ("ML", "CL")]
    ml_partners = store.partners[Relation.MUST_LINK]
    cl_partners = store.partners[Relation.CANNOT_LINK]
    with _open_sink(sink) as f:
        for u, tu in enumerate(tokens):
            codes = [2 * v for v in ml_partners.get(u, ()) if v > u]
            codes += [2 * v + 1 for v in cl_partners.get(u, ()) if v > u]
            if codes:
                codes.sort()
                prefix = tu + " "
                f.write(prefix + prefix.join(map(suffix.__getitem__, codes)))


def load_constraints(source, id_map: IdMap) -> ConstraintStore:
    store = ConstraintStore()
    for line_no, line, tokens in _records(source):
        if len(tokens) != 3:
            raise ParseError(f"expected 'u v ML|CL', got {line!r}", line_no, source)
        tu, tv, tag = tokens
        if tag not in ("ML", "CL"):
            raise ParseError(f"unknown relation tag {tag!r}", line_no, source)
        try:
            store.add(id_map.internal(tu), id_map.internal(tv), Relation(tag))
        except (KeyError, ValueError) as e:
            # an unknown token, or a self, repeated or conflicting pair
            raise ParseError(e.args[0], line_no, source) from e
    return store
