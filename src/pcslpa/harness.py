"""Experiment orchestration: seeded repeated runs, budget sweeps, NMI
aggregation, CSV reports, win-loss tables, and ground-truth preprocessing."""

from __future__ import annotations

import csv
import hashlib
import io
import random
import statistics
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .constrained import RepairReport, run_pcslpa_report
from .constraints import GroundTruthOracle, budget_queries, select_constraints
from .graph import Cover, Graph, load_cover, load_edge_list
from .nmi import overlapping_nmi
from .slpa import SlpaParams, run_slpa

ALGO_SLPA = "slpa"
ALGO_PCSLPA = "pcslpa"


def mix_seed(base: int, *tokens: str) -> int:
    """Stable 64-bit seed derivation: base XOR blake2b over the tokens."""
    digest = hashlib.blake2b(":".join(tokens).encode(), digest_size=8).digest()
    return (base ^ int.from_bytes(digest, "big")) & 0xFFFFFFFFFFFFFFFF


def derive_seed(base: int, pct: float, run: int) -> int:
    """Per-(budget, run) seed; independent of execution order."""
    return mix_seed(base, f"{pct:.10g}", str(run))


@dataclass(frozen=True)
class ExperimentConfig:
    edges: Path
    truth: Path
    algorithm: str = ALGO_SLPA
    budget_pcts: tuple[float, ...] = ()
    iterations: int = SlpaParams.iterations
    threshold: float = SlpaParams.threshold
    runs: int = 20
    seed: int = 12345
    network_id: str = ""

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.algorithm not in (ALGO_SLPA, ALGO_PCSLPA):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if any(not 0.0 <= p <= 1.0 for p in self.budget_pcts):
            raise ValueError("budget fractions must lie in [0, 1]")
        if len(set(self.budget_pcts)) != len(self.budget_pcts):
            raise ValueError("budget fractions must not repeat")
        if (self.algorithm == ALGO_PCSLPA) != bool(self.budget_pcts):
            raise ValueError("pcslpa needs at least one budget fraction, and slpa takes none")
        # the propagation settings, checked by their own type
        SlpaParams(self.iterations, self.threshold)
        if not self.network_id:
            object.__setattr__(self, "network_id", Path(self.edges).stem)


@dataclass(frozen=True)
class RunResult:
    """One (algorithm, budget, run) cell, one row of the per-run CSV; its
    fields, in order, are the CSV's columns.

    network is the network's name, algo the algorithm, pct the budget as a
    fraction of the pairs of the ground truth's nodes (0 for slpa), seed the
    cell's derived seed and nmi its score against the ground truth. ms is the
    wall time of selection, propagation and post-processing in milliseconds;
    scoring is not included, as run_cell stops the clock before
    overlapping_nmi. The fields after ms, ml_exchanges through label_merges,
    are RepairReport's counters in RepairReport's order, all 0 for slpa.
    """

    network: str
    algo: str
    pct: float
    seed: int
    nmi: float
    ms: float
    ml_exchanges: int = 0
    ml_blocked_transfers: int = 0
    cl_deletions: int = 0
    cl_guard_exceptions: int = 0
    label_merges: int = 0


def covering_truth(truth: Cover, source) -> Cover:
    """truth, or a ValueError that names source when truth has no community
    (a score or a budget over its nodes would have nothing to count)."""
    if not truth.communities:
        raise ValueError(f"ground truth {source} covers no node")
    return truth


def load_experiment_inputs(cfg: ExperimentConfig) -> tuple[Graph, Cover]:
    try:
        g = load_edge_list(cfg.edges)
    except OSError as e:
        raise RuntimeError(f"cannot load network {cfg.edges}: {e}") from e
    try:
        truth = load_cover(cfg.truth, g.ids)
    except OSError as e:
        raise RuntimeError(f"cannot load ground truth {cfg.truth}: {e}") from e
    return g, covering_truth(truth, cfg.truth)


def experiment_cells(cfg: ExperimentConfig) -> list[tuple[str, float]]:
    """(algorithm, pct) cells in deterministic sweep order."""
    if cfg.algorithm == ALGO_SLPA:
        return [(ALGO_SLPA, 0.0)]
    return [(ALGO_PCSLPA, pct) for pct in sorted(cfg.budget_pcts)]


def run_cell(g: Graph, truth: Cover, cfg: ExperimentConfig, algo: str,
             pct: float, run_index: int):
    """One (algorithm, budget, run) cell; returns (RunResult, Cover, store).

    The store is None for the unsupervised algorithm. Seeds are derived per
    cell, never shared. The NMI is taken over the ground truth's nodes.
    """
    seed = derive_seed(cfg.seed, pct, run_index)
    base = SlpaParams(iterations=cfg.iterations, threshold=cfg.threshold, seed=seed)
    started = time.perf_counter()
    if algo == ALGO_SLPA:
        store = None
        cover, report = run_slpa(g, base), RepairReport()
    else:
        oracle = GroundTruthOracle(truth)
        max_queries = budget_queries(pct, len(truth.nodes()))
        select_rng = random.Random(mix_seed(seed, "select"))
        store = select_constraints(g, oracle, max_queries, select_rng)
        cover, report = run_pcslpa_report(g, store, base)
    ms = (time.perf_counter() - started) * 1000.0
    score = overlapping_nmi(truth, cover, truth.nodes())
    return RunResult(cfg.network_id, algo, pct, seed, score, ms, **asdict(report)), cover, store


def run_experiment(cfg: ExperimentConfig,
                   inputs: tuple[Graph, Cover] | None = None) -> list[RunResult]:
    """All (cell, run) results for a config, in deterministic order. inputs
    is cfg's (graph, truth) when the caller has loaded them already.

    Each result depends only on its derived seed, so the list is invariant
    under any execution order.
    """
    g, truth = load_experiment_inputs(cfg) if inputs is None else inputs
    results = []
    for algo, pct in experiment_cells(cfg):
        for run_index in range(cfg.runs):
            results.append(run_cell(g, truth, cfg, algo, pct, run_index)[0])
    return results


def _cell_label(algo: str, pct: float) -> str:
    return algo if algo == ALGO_SLPA else f"{algo}@{pct:g}"


@dataclass(frozen=True)
class CellSummary:
    network: str
    algo: str
    pct: float
    mean_nmi: float
    std_nmi: float
    runs: int


def summarize(results: list[RunResult]) -> list[CellSummary]:
    """Mean and sample standard deviation of NMI per (network, algo, pct)."""
    groups: dict[tuple[str, str, float], list[float]] = {}
    for r in results:
        groups.setdefault((r.network, r.algo, r.pct), []).append(r.nmi)
    out = []
    for (network, algo, pct), scores in sorted(groups.items()):
        std = statistics.stdev(scores) if len(scores) > 1 else 0.0
        out.append(CellSummary(network, algo, pct, statistics.fmean(scores), std, len(scores)))
    return out


def _csv_text(rows: list[list[str]]) -> str:
    """The rows as CSV lines ending in "\n"; a field that holds a comma or a
    quote is quoted, so csv.reader reads it back."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


_CSV_FORMATS = {"pct": "{:g}".format, "nmi": "{:.6f}".format, "ms": "{:.3f}".format}


def results_csv(results: list[RunResult], include_timing: bool = True) -> str:
    """Raw per-run CSV: a header of RunResult's field names, then one row per
    result, each field written by its _CSV_FORMATS entry or else by str.
    include_timing=False drops the ms column, for byte-stable comparisons."""
    names = [f.name for f in fields(RunResult) if include_timing or f.name != "ms"]
    rows = [names] + [[_CSV_FORMATS.get(name, str)(getattr(r, name)) for name in names]
                      for r in results]
    return _csv_text(rows)


def sweep_report(results: list[RunResult]) -> str:
    """Aggregated CSV: one row per network, one column per algorithm/budget
    cell (unsupervised first, then budgets ascending), mean NMI to 4 decimals.
    Byte-stable for identical inputs."""
    summaries = summarize(results)
    cells = sorted({(s.algo, s.pct) for s in summaries},
                   key=lambda c: (0, 0.0) if c[0] == ALGO_SLPA else (1, c[1]))
    networks = sorted({s.network for s in summaries})
    by_key = {(s.network, s.algo, s.pct): s for s in summaries}
    rows = [["network"] + [_cell_label(a, p) for a, p in cells]]
    for network in networks:
        row = [network]
        for algo, pct in cells:
            s = by_key.get((network, algo, pct))
            row.append(f"{s.mean_nmi:.4f}" if s is not None else "")
        rows.append(row)
    return _csv_text(rows)


@dataclass(frozen=True)
class WinLossTable:
    algorithms: list[str]          # ordered by descending total wins
    wins: list[list[int]]          # wins[i][j]: networks where algo i beats algo j
    ties: list[list[int]]
    total_wins: list[int]
    rank_scores: list[float]       # total wins / (networks * (algorithms - 1))
    ranks: list[int]
    networks: int

    def to_csv(self) -> str:
        rows = [["algorithm"] + self.algorithms + ["total_wins", "rank_score", "rank"]]
        denom = self.networks * (len(self.algorithms) - 1)
        for i, name in enumerate(self.algorithms):
            row = [name] + [str(w) for w in self.wins[i]]
            row.append(f"{self.total_wins[i]}/{denom}")
            row.append(f"{self.rank_scores[i]:.4f}")
            row.append(str(self.ranks[i]))
            rows.append(row)
        return _csv_text(rows)

    def to_text(self) -> str:
        denom = self.networks * (len(self.algorithms) - 1)
        width = max(len(a) for a in self.algorithms) + 2
        cols = max(6, max(len(a) for a in self.algorithms) + 1)
        lines = ["".ljust(width) + "".join(a.rjust(cols) for a in self.algorithms)
                 + "total wins".rjust(14) + "rank".rjust(6)]
        for i, name in enumerate(self.algorithms):
            cells = "".join(str(w).rjust(cols) for w in self.wins[i])
            lines.append(name.ljust(width) + cells
                         + f"{self.total_wins[i]}/{denom}".rjust(14) + str(self.ranks[i]).rjust(6))
        return "\n".join(lines) + "\n"


def win_loss_table(scores: dict[str, list[float]]) -> WinLossTable:
    """Pairwise win counts over networks from mean NMI per algorithm.

    scores maps algorithm name to its per-network mean NMI (all lists aligned
    and of equal length). Strictly greater counts a win; ties credit neither.
    """
    names = list(scores)
    if len(names) < 2:
        raise ValueError("win-loss comparison needs at least two algorithms")
    lengths = {len(v) for v in scores.values()}
    if len(lengths) != 1:
        raise ValueError("all algorithms must cover the same networks")
    n_networks = lengths.pop()
    if n_networks < 1:
        raise ValueError("win-loss comparison needs at least one network")

    wins = {a: {b: 0 for b in names} for a in names}
    ties = {a: {b: 0 for b in names} for a in names}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for sa, sb in zip(scores[a], scores[b]):
                if sa > sb:
                    wins[a][b] += 1
                elif sb > sa:
                    wins[b][a] += 1
                else:
                    ties[a][b] += 1
                    ties[b][a] += 1
    totals = {a: sum(wins[a][b] for b in names if b != a) for a in names}
    ordered = sorted(names, key=lambda a: (-totals[a], names.index(a)))
    denom = n_networks * (len(names) - 1)
    total_list = [totals[a] for a in ordered]
    ranks = [1 + sum(1 for t in total_list if t > total_list[i]) for i in range(len(ordered))]
    return WinLossTable(
        algorithms=ordered,
        wins=[[wins[a][b] for b in ordered] for a in ordered],
        ties=[[ties[a][b] for b in ordered] for a in ordered],
        total_wins=total_list,
        rank_scores=[totals[a] / denom for a in ordered],
        ranks=ranks,
        networks=n_networks,
    )


def internal_density(g: Graph, community: frozenset[int]) -> float:
    """Edges inside the community divided by its possible pair count; each
    member's adjacency list counts every inner edge from both ends."""
    size = len(community)
    if size < 2:
        return 0.0
    edges = sum(len(community.intersection(g.adjacency[u])) for u in community) // 2
    return edges / (size * (size - 1) // 2)


def filter_truth(g: Graph, cover: Cover, keep_largest: int = 5000, min_size: int = 5) -> Cover:
    """Ground-truth preprocessing for raw community files.

    Keeps the keep_largest biggest communities, discards the bottom quartile
    of those by internal density, collapses duplicates, and drops communities
    below min_size. Both keep_largest and min_size must be at least 1.
    """
    if keep_largest < 1:
        raise ValueError(f"keep_largest must be at least 1, got {keep_largest}")
    if min_size < 1:
        raise ValueError(f"min_size must be at least 1, got {min_size}")
    comms = sorted(cover.communities, key=lambda c: (-len(c), sorted(c)))[:keep_largest]
    ranked = sorted(comms, key=lambda c: (internal_density(g, c), sorted(c)))
    comms = [c for c in ranked[len(ranked) // 4:] if len(c) >= min_size]
    return Cover(sorted(comms, key=lambda c: (-len(c), sorted(c))))
