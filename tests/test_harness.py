"""Experiment harness tests: seed derivation, result tables, win-loss
aggregation, and ground-truth preprocessing."""

from __future__ import annotations

import csv
import io
import random
from dataclasses import fields

import pytest

from pcslpa.cli import main
from pcslpa.constrained import RepairReport, run_pcslpa_report
from pcslpa.graph import Cover, build_graph, write_cover, write_edge_list
from pcslpa.harness import (
    ExperimentConfig,
    RunResult,
    derive_seed,
    experiment_cells,
    filter_truth,
    internal_density,
    load_experiment_inputs,
    mix_seed,
    results_csv,
    run_cell,
    run_experiment,
    summarize,
    sweep_report,
    win_loss_table,
)
from pcslpa.planted import gen_planted_overlap
from pcslpa.slpa import SlpaParams


@pytest.fixture(scope="module")
def planted_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("net")
    g, truth = gen_planted_overlap(2, 10, 3, 1.0, 0.0, seed=0)
    edges = root / "chain.txt"
    cover = root / "chain_truth.txt"
    write_edge_list(g, edges)
    write_cover(truth, cover, g.ids)
    return edges, cover


def test_mix_seed_is_stable_and_token_sensitive():
    assert mix_seed(1, "a") == mix_seed(1, "a")
    assert mix_seed(1, "a") != mix_seed(1, "b")
    assert mix_seed(1, "a", "b") != mix_seed(1, "ab")
    assert 0 <= mix_seed(2**63, "x") < 2**64


def test_derive_seed_unique_per_cell_and_run():
    seen = set()
    for pct in (0.0, 0.01, 0.05, 0.1):
        for run in range(25):
            seen.add(derive_seed(12345, pct, run))
    assert len(seen) == 4 * 25


def test_config_validation_and_network_id(planted_files):
    edges, cover = planted_files
    cfg = ExperimentConfig(edges=edges, truth=cover)
    assert cfg.network_id == "chain"
    with pytest.raises(ValueError):
        ExperimentConfig(edges=edges, truth=cover, runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(edges=edges, truth=cover, algorithm="louvain")
    with pytest.raises(ValueError):
        ExperimentConfig(edges=edges, truth=cover, algorithm="pcslpa")
    with pytest.raises(ValueError):
        ExperimentConfig(edges=edges, truth=cover, budget_pcts=(0.05,))


def test_experiment_cells_orderings(planted_files):
    edges, cover = planted_files
    slpa_cfg = ExperimentConfig(edges=edges, truth=cover)
    assert experiment_cells(slpa_cfg) == [("slpa", 0.0)]
    pc_cfg = ExperimentConfig(edges=edges, truth=cover, algorithm="pcslpa",
                              budget_pcts=(0.05, 0.01))
    assert experiment_cells(pc_cfg) == [("pcslpa", 0.01), ("pcslpa", 0.05)]


def test_run_experiment_produces_one_result_per_run(planted_files):
    edges, cover = planted_files
    cfg = ExperimentConfig(edges=edges, truth=cover, iterations=15, runs=5, seed=7)
    results = run_experiment(cfg)
    assert len(results) == 5
    assert len({r.seed for r in results}) == 5
    assert all(r.network == "chain" and r.algo == "slpa" for r in results)
    assert all(0.0 <= r.nmi <= 1.0 for r in results)
    assert all(r.ms >= 0.0 for r in results)


def test_run_experiment_constrained_counts_cells(planted_files):
    edges, cover = planted_files
    cfg = ExperimentConfig(edges=edges, truth=cover, algorithm="pcslpa",
                           budget_pcts=(0.05, 0.01), iterations=15, runs=3, seed=7)
    results = run_experiment(cfg)
    assert len(results) == 6
    assert [r.pct for r in results] == [0.01] * 3 + [0.05] * 3


def test_results_are_reproducible_for_same_config(planted_files):
    edges, cover = planted_files
    cfg = ExperimentConfig(edges=edges, truth=cover, algorithm="pcslpa",
                           budget_pcts=(0.05,), iterations=15, runs=3, seed=11)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert results_csv(a, include_timing=False) == results_csv(b, include_timing=False)
    # timing-free CSV is byte-stable; the timed one need not be
    assert a != b or a == b


def test_summarize_means_and_deviation():
    rows = [
        RunResult("net", "slpa", 0.0, 1, 0.5, 1.0),
        RunResult("net", "slpa", 0.0, 2, 0.7, 1.0),
        RunResult("net", "pcslpa", 0.05, 3, 0.9, 1.0),
    ]
    cells = summarize(rows)
    assert len(cells) == 2
    by_algo = {c.algo: c for c in cells}
    assert by_algo["slpa"].mean_nmi == pytest.approx(0.6)
    assert by_algo["slpa"].std_nmi == pytest.approx(0.14142135, abs=1e-6)
    assert by_algo["slpa"].runs == 2
    assert by_algo["pcslpa"].std_nmi == 0.0


def test_results_csv_layout():
    rows = [RunResult("n1", "pcslpa", 0.05, 42, 0.123456789, 12.3456, 1, 2, 3, 0, 4)]
    timed = results_csv(rows)
    lines = timed.splitlines()
    assert lines[0] == ("network,algo,pct,seed,nmi,ms,ml_exchanges,ml_blocked_transfers,"
                        "cl_deletions,cl_guard_exceptions,label_merges")
    assert lines[1] == "n1,pcslpa,0.05,42,0.123457,12.346,1,2,3,0,4"
    bare = results_csv(rows, include_timing=False)
    assert bare.splitlines()[0] == ("network,algo,pct,seed,nmi,ml_exchanges,ml_blocked_transfers,"
                                    "cl_deletions,cl_guard_exceptions,label_merges")
    assert ",12.346," not in bare


def test_run_cell_forwards_every_repair_counter(planted_files):
    edges, cover = planted_files
    cfg = ExperimentConfig(edges=edges, truth=cover, algorithm="pcslpa",
                           budget_pcts=(0.3,), iterations=20, runs=1, seed=3)
    g, truth = load_experiment_inputs(cfg)
    result, _, store = run_cell(g, truth, cfg, "pcslpa", 0.3, 0)
    report = run_pcslpa_report(g, store, SlpaParams(iterations=20, seed=result.seed))[1]
    assert report.label_merges > 0
    assert RepairReport(result.ml_exchanges, result.ml_blocked_transfers, result.cl_deletions,
                        result.cl_guard_exceptions, result.label_merges) == report


def test_budget_counts_only_the_pairs_of_truth_covered_nodes(tmp_path):
    # the truth covers 10 of 30 nodes: 45 eligible pairs, so a 20% budget is
    # floor(0.2 * 45) = 9 queries, not floor(0.2 * 435) = 87, which exceeds
    # the pool; both the sweep cell and select-constraints spend exactly 9
    g = build_graph(30, [(v, v + 1) for v in range(29)])
    truth = Cover([set(range(5)), set(range(5, 10))])
    edges, cover, pairs = tmp_path / "e.txt", tmp_path / "t.txt", tmp_path / "p.txt"
    write_edge_list(g, edges)
    write_cover(truth, cover, g.ids)
    cfg = ExperimentConfig(edges=edges, truth=cover, algorithm="pcslpa",
                           budget_pcts=(0.2,), iterations=5, runs=1, seed=3)
    store = run_cell(*load_experiment_inputs(cfg), cfg, "pcslpa", 0.2, 0)[2]
    assert store.queries_used == 9
    assert main(["select-constraints", "--edges", str(edges), "--truth", str(cover),
                 "--budget-pct", "0.2", "--out", str(pairs)]) == 0
    assert len(pairs.read_text().splitlines()) == 9


def test_sweep_report_orders_cells_and_networks():
    rows = [
        RunResult("beta", "pcslpa", 0.05, 1, 0.8, 1.0),
        RunResult("beta", "pcslpa", 0.01, 1, 0.6, 1.0),
        RunResult("beta", "slpa", 0.0, 1, 0.5, 1.0),
        RunResult("alpha", "slpa", 0.0, 1, 0.4, 1.0),
    ]
    report = sweep_report(rows)
    lines = report.splitlines()
    assert lines[0] == "network,slpa,pcslpa@0.01,pcslpa@0.05"
    assert lines[1] == "alpha,0.4000,,"
    assert lines[2] == "beta,0.5000,0.6000,0.8000"
    assert sweep_report(list(rows)) == report


def test_a_comma_in_a_name_is_quoted_in_every_csv():
    rows = [RunResult("a,b", "slpa", 0.0, 1, 0.5, 1.0),
            RunResult("a,b", "pcslpa", 0.05, 1, 0.75, 1.0)]
    for text in (results_csv(rows), results_csv(rows, include_timing=False), sweep_report(rows)):
        parsed = list(csv.reader(io.StringIO(text)))
        assert {len(row) for row in parsed} == {len(parsed[0])}
        assert [row[0] for row in parsed[1:]] == ["a,b"] * (len(parsed) - 1)
    assert sweep_report(rows).splitlines()[1] == '"a,b",0.5000,0.7500'
    table = win_loss_table({"x,y": [0.9], "z": [0.1]})
    assert list(csv.reader(io.StringIO(table.to_csv())))[1][0] == "x,y"


def test_win_loss_counts_frozen_example():
    table = win_loss_table({"A": [0.9, 0.8, 0.5], "B": [0.7, 0.85, 0.5]})
    assert table.algorithms == ["A", "B"]
    a, b = 0, 1
    assert table.wins[a][b] == 1
    assert table.wins[b][a] == 1
    assert table.ties[a][b] == 1
    assert table.total_wins == [1, 1]
    assert table.networks == 3
    # 2 algorithms over 3 networks: each row's denominator is 3
    assert "1/3" in table.to_csv()


def test_win_loss_accounting_is_complete():
    rng = random.Random(17)
    names = ["a1", "a2", "a3", "a4"]
    scores = {name: [round(rng.random(), 2) for _ in range(9)] for name in names}
    table = win_loss_table(scores)
    idx = {name: i for i, name in enumerate(table.algorithms)}
    for x in names:
        for y in names:
            if x == y:
                continue
            i, j = idx[x], idx[y]
            assert table.wins[i][j] + table.wins[j][i] + table.ties[i][j] == table.networks
    assert table.ranks[0] == 1
    assert sorted(table.total_wins, reverse=True) == table.total_wins


def test_win_loss_rank_scores_use_pair_denominator():
    rng = random.Random(23)
    scores = {f"algo{i}": [rng.random() for _ in range(32)] for i in range(5)}
    table = win_loss_table(scores)
    denom = 32 * 4
    assert denom == 128
    for total, score in zip(table.total_wins, table.rank_scores):
        assert score == pytest.approx(total / denom)
    assert f"/{denom}" in table.to_text()


def test_win_loss_validation():
    with pytest.raises(ValueError):
        win_loss_table({"only": [0.5]})
    with pytest.raises(ValueError):
        win_loss_table({"a": [0.5], "b": [0.5, 0.6]})
    with pytest.raises(ValueError):
        win_loss_table({"a": [], "b": []})


def test_internal_density():
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert internal_density(g, frozenset({0, 1, 2})) == 1.0
    assert internal_density(g, frozenset({0, 3})) == 0.0
    assert internal_density(g, frozenset({2})) == 0.0
    assert internal_density(g, frozenset({0, 1, 3})) == pytest.approx(1 / 3)


def test_filter_truth_keeps_largest_and_drops_sparse_quartile():
    # 4 communities: 3 dense triangles and 1 sparse triple; quartile drop
    # removes exactly the sparsest one
    edges = [(0, 1), (1, 2), (0, 2),
             (3, 4), (4, 5), (3, 5),
             (6, 7), (7, 8), (6, 8)]
    g = build_graph(12, edges)
    cover = Cover([{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}])
    kept = filter_truth(g, cover, keep_largest=10, min_size=1)
    assert {frozenset(c) for c in kept.communities} == {
        frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8})}


@pytest.mark.parametrize("bounds", [{"keep_largest": 0}, {"keep_largest": -1}, {"min_size": 0}])
def test_filter_truth_rejects_a_bound_below_one(bounds):
    g = build_graph(10, [(0, 1), (2, 3), (4, 5), (6, 7)])
    cover = Cover([{0, 1, 2, 3, 4}, {5, 6}, {7, 8, 9}])
    with pytest.raises(ValueError, match="must be at least 1"):
        filter_truth(g, cover, **bounds)


def test_filter_truth_size_cap_and_floor():
    g = build_graph(10, [(0, 1), (2, 3), (4, 5), (6, 7)])
    cover = Cover([{0, 1, 2, 3, 4}, {5, 6}, {7, 8, 9}])
    top_two = filter_truth(g, cover, keep_largest=2, drop_density_quartile=False, min_size=1)
    assert sorted(len(c) for c in top_two.communities) == [3, 5]
    floored = filter_truth(g, cover, keep_largest=10, drop_density_quartile=False, min_size=3)
    assert sorted(len(c) for c in floored.communities) == [3, 5]


def test_run_result_columns_after_ms_are_the_repair_counters():
    # a counter added to one type and not the other, or reordered, fails here
    names = [f.name for f in fields(RunResult)]
    assert names[names.index("ms") + 1:] == [f.name for f in fields(RepairReport)]


def test_slpa_rows_carry_zero_counters(planted_files):
    edges, cover = planted_files
    results = run_experiment(ExperimentConfig(edges=edges, truth=cover, iterations=10,
                                              runs=2, seed=5))
    counters = [f.name for f in fields(RepairReport)]
    assert all(getattr(r, name) == 0 for r in results for name in counters)
    rows = list(csv.reader(io.StringIO(results_csv(results))))
    assert all(row[-len(counters):] == ["0"] * len(counters) for row in rows[1:])
