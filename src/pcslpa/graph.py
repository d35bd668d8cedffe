"""Undirected graphs and overlapping covers: loading, validation, file formats.

Edge-list format: one "u v" pair per line, whitespace-separated, '#' starts a
comment line. Cover format: one community per line, whitespace-separated member
tokens. Node tokens are remapped to dense internal ids 0..n-1 in order of first
appearance; the original tokens are kept in a bidirectional map.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

logger = logging.getLogger(__name__)


def _named(source, message: str) -> str:
    """message, prefixed with 'PATH: ' when source is a path."""
    return f"{source}: {message}" if isinstance(source, (str, Path)) else message


class ParseError(ValueError):
    """Malformed input, as 'PATH: line N: message': the path when the input
    is a file named by a path, the 1-based line number when there is one."""

    def __init__(self, message: str, line_no: int | None = None, source=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(_named(source, message))
        self.line_no = line_no


class IdMap:
    """Bijection between external node tokens and dense internal indices.

    Fixed once built: a loaded graph's map cannot change under it."""

    def __init__(self, index: dict[str, int]) -> None:
        """The map of index, whose ids must be 0..n-1 in insertion order (as
        `index.setdefault(token, len(index))` makes); the map keeps index."""
        self._to_internal = index
        self._to_external = list(index)

    def internal(self, token: str) -> int:
        try:
            return self._to_internal[token]
        except KeyError:
            raise KeyError(f"unknown node token {token!r}") from None

    def external(self, index: int) -> str:
        return self._to_external[index]

    def __len__(self) -> int:
        return len(self._to_external)

    def __contains__(self, token: str) -> bool:
        return token in self._to_internal

    @classmethod
    def identity(cls, n: int) -> "IdMap":
        """Id map whose external tokens are the decimal indices themselves."""
        return cls({str(i): i for i in range(n)})


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over dense internal node ids.

    Immutable after construction; safe to share read-only across runs.
    adjacency lists are sorted ascending.
    """

    n: int
    adjacency: list[list[int]] = field(repr=False)
    m: int
    ids: IdMap = field(repr=False)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v, sorted."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Assemble a Graph from internal-id edges, dropping self-loops/duplicates.

    Nodes 0..n-1 exist even when isolated; each node's external token is its
    decimal id (IdMap.identity).
    """
    if n < 0:
        raise ValueError("node count must be non-negative")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            continue
        seen.add((u, v) if u < v else (v, u))
    return _graph_of_pairs(n, seen, IdMap.identity(n))


def _graph_of_pairs(n: int, pairs: set[tuple[int, int]], ids: IdMap) -> Graph:
    """The Graph of distinct in-range pairs (u, v), u < v, with sorted
    adjacency lists."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for a in adjacency:
        a.sort()
    return Graph(n=n, adjacency=adjacency, m=len(pairs), ids=ids)


def _iter_lines(source) -> Iterator[str]:
    """The lines of source: a path, read as UTF-8 less any byte-order mark
    with line ends kept as written, or an iterable of lines."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as f:
            try:
                yield from f
            except UnicodeDecodeError as e:
                raise ParseError(str(e), source=source) from e
    else:
        yield from source


def _records(source) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped line, tokens) of each line of source that holds
    a token and does not start with '#'."""
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield line_no, raw.strip(), tokens


@contextmanager
def _open_sink(sink):
    """sink itself, or a text file opened for writing when sink is a path;
    the path is logged once the file is closed."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as f:
            yield f
        logger.info("wrote %s", sink)
    else:
        yield sink


def load_edge_list(source) -> Graph:
    """Load an undirected simple graph from edge-list text.

    source may be a path, an open text file, or an iterable of lines. Comment
    lines ('#') and blank lines are skipped. Self-loops and duplicate edges are
    dropped and their counts logged. Node ids are remapped densely in
    first-appearance order.

    Each token is interned with one dict operation and each edge stored once
    in the loader's pair set, from which the adjacency is built directly.
    """
    index: dict[str, int] = {}
    intern = index.setdefault
    pairs: set[tuple[int, int]] = set()
    add = pairs.add
    edges = 0
    self_loops = 0
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 2 node tokens, got {len(tokens)}: {raw.strip()!r}",
                             line_no, source)
        edges += 1
        u = intern(tokens[0], len(index))
        v = intern(tokens[1], len(index))
        if u < v:
            add((u, v))
        elif v < u:
            add((v, u))
        else:
            self_loops += 1
    if not edges:
        raise ParseError("empty edge list: no edges found", source=source)
    duplicates = edges - self_loops - len(pairs)
    if self_loops or duplicates:
        logger.warning("dropped %d self-loop(s) and %d duplicate edge(s)", self_loops, duplicates)
    return _graph_of_pairs(len(index), pairs, IdMap(index))


def write_edge_list(g: Graph, sink) -> None:
    """Write g as edge-list text (external tokens, one edge per line).

    Isolated nodes cannot be represented in this format and are not written.
    """
    with _open_sink(sink) as f:
        for u, v in g.edges():
            f.write(f"{g.ids.external(u)} {g.ids.external(v)}\n")


class Cover:
    """A set of possibly-overlapping communities (node sets) over internal ids.

    Duplicate communities are collapsed on construction; empty communities are
    rejected. Immutable by convention after construction.
    """

    def __init__(self, communities: Iterable[Iterable[int]]):
        seen: set[frozenset[int]] = set()
        comms: list[frozenset[int]] = []
        for c in communities:
            fs = frozenset(c)
            if not fs:
                raise ValueError("cover contains an empty community")
            if fs not in seen:
                seen.add(fs)
                comms.append(fs)
        self.communities: list[frozenset[int]] = comms
        membership: dict[int, list[int]] = {}
        for idx, c in enumerate(comms):
            for v in c:
                membership.setdefault(v, []).append(idx)
        self._membership = membership

    def memberships(self, v: int) -> list[int]:
        """Indices of the communities containing v (empty list if uncovered)."""
        return self._membership.get(v, [])

    def nodes(self) -> set[int]:
        return set(self._membership)

    def __len__(self) -> int:
        return len(self.communities)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.communities)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return set(self.communities) == set(other.communities)

    def __repr__(self) -> str:
        return f"Cover({len(self.communities)} communities, {len(self._membership)} nodes)"


def load_cover(source, id_map: IdMap, strict: bool = True) -> Cover:
    """Load a cover: one community per line, whitespace-separated member tokens.

    Tokens absent from id_map raise ParseError when strict. Otherwise they
    are skipped, with one warning for the whole input that counts them and
    names the first, and a line left with no member is dropped.
    """
    comms: list[set[int]] = []
    skipped: list[tuple[str, int]] = []
    for line_no, _, tokens in _records(source):
        members: set[int] = set()
        for token in tokens:
            if token in id_map:
                members.add(id_map.internal(token))
            elif strict:
                raise ParseError(f"unknown node token {token!r}", line_no, source)
            else:
                skipped.append((token, line_no))
        if members:
            comms.append(members)
    if skipped:
        logger.warning("%sskipped %d unknown node token(s), the first %r on line %d",
                       _named(source, ""), len(skipped), *skipped[0])
    return Cover(comms)


def write_cover(cover: Cover, sink, id_map: IdMap) -> None:
    """Write a cover as one community per line, members as external tokens."""
    with _open_sink(sink) as f:
        for c in cover.communities:
            f.write(" ".join(id_map.external(v) for v in sorted(c)) + "\n")
