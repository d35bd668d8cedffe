"""Overlapping community detection by speaker-listener label propagation,
with optional must-link/cannot-link supervision, overlapping NMI scoring,
and a reproducible benchmark harness."""

from .graph import Cover, Graph, IdMap, ParseError, build_graph, load_cover, load_edge_list, write_cover, write_edge_list
from .slpa import LabelMemory, SlpaParams, run_slpa
from .constraints import ConstraintStore, GroundTruthOracle, Oracle, Relation, budget_queries, find_forbidden_triads, select_constraints
from .constrained import RepairReport, run_pcslpa_report
from .nmi import CoverStats, cover_stats, overlapping_nmi
from .planted import gen_planted_overlap
from .harness import (
    ExperimentConfig,
    RunResult,
    WinLossTable,
    derive_seed,
    filter_truth,
    mix_seed,
    results_csv,
    run_experiment,
    summarize,
    sweep_report,
    win_loss_table,
)

__all__ = [
    "ConstraintStore",
    "Cover",
    "CoverStats",
    "ExperimentConfig",
    "Graph",
    "GroundTruthOracle",
    "IdMap",
    "LabelMemory",
    "Oracle",
    "ParseError",
    "Relation",
    "RepairReport",
    "RunResult",
    "SlpaParams",
    "WinLossTable",
    "budget_queries",
    "build_graph",
    "cover_stats",
    "derive_seed",
    "filter_truth",
    "find_forbidden_triads",
    "gen_planted_overlap",
    "load_cover",
    "load_edge_list",
    "mix_seed",
    "overlapping_nmi",
    "results_csv",
    "run_experiment",
    "run_pcslpa_report",
    "run_slpa",
    "select_constraints",
    "summarize",
    "sweep_report",
    "win_loss_table",
    "write_cover",
    "write_edge_list",
]

__version__ = "0.1.0"
