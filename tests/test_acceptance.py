"""End-to-end acceptance gate.

Each test covers one numbered criterion and reports a single pass/fail
line through the terminal summary hook, so a full run ends with an
at-a-glance table. Criteria:

 1. the overlap-aware NMI agrees with an independent brute-force oracle on
    200 random cover pairs (<= 30 nodes, <= 6 communities) within 1e-9,
    plus identity/symmetry/range checks, in under 10 s
 2. the unsupervised algorithm perfectly recovers two disjoint planted
    10-cliques (NMI 1.0) in at least 18 of 20 seeded runs, in under 5 s
 3. with an empty constraint store the constrained algorithm reproduces
    the unsupervised covers on matched seeds, at least 18 of 20
 4. on a 4-community planted instance with heavy overlap, the constrained
    algorithm at a 5% query budget beats the unsupervised mean by at
    least 0.02 over 20 runs, in under 2 min
 5. on the same instance the 5% budget mean is no more than 0.01 below
    the 1% budget mean, in under 5 min
 6. those same constrained runs leave no output community containing both
    endpoints of a cannot-link pair, with zero emptiness-guard hits
 7. constraint selection respects the exact budget floor, never repeats
    a query, keeps the relation sets disjoint, and matches the oracle
 8. repeating an experiment with the same base seed reproduces the
    timing-free per-run CSV and the sweep report byte for byte
 9. pairwise win-loss accounting over 5 algorithms and 32 networks is
    complete: wins + losses + ties = networks for every pair, with the
    rank denominator at 32 * 4 = 128
10. the real-data workflow and its expected score range are documented
    in the README (documentation check only, not a benchmark run)
11. on criterion 4's 20 runs, the constrained algorithm at a 5% budget
    beats the unsupervised mean under NMI_max (McDaid, Greene & Hurley)
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import pytest

from conftest import record_criterion
from test_constraints import CountingOracle
from test_nmi import as_sets, naive_overlapping_nmi, random_cover

from pcslpa.constrained import run_pcslpa_report
from pcslpa.constraints import (
    ConstraintStore,
    GroundTruthOracle,
    budget_queries,
    select_constraints,
)
from pcslpa.graph import write_cover, write_edge_list
from pcslpa.harness import (
    ExperimentConfig,
    experiment_cells,
    load_experiment_inputs,
    results_csv,
    run_cell,
    run_experiment,
    sweep_report,
    win_loss_table,
)
from pcslpa.nmi import nmi_max, overlapping_nmi
from pcslpa.planted import gen_planted_overlap
from pcslpa.slpa import SlpaParams, run_slpa


def check(number: int, ok: bool, detail: str) -> None:
    record_criterion(number, ok, detail)
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def chain20_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain20")
    g, truth = gen_planted_overlap(2, 10, 0, 1.0, 0.0, seed=0)
    edges = root / "chain20.txt"
    cover = root / "chain20_truth.txt"
    write_edge_list(g, edges)
    write_cover(truth, cover, g.ids)
    return edges, cover


@pytest.fixture(scope="module")
def planted76_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted76")
    g, truth = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=0)
    edges = root / "planted76.txt"
    cover = root / "planted76_truth.txt"
    write_edge_list(g, edges)
    write_cover(truth, cover, g.ids)
    return edges, cover


@pytest.fixture(scope="module")
def experiment_data(planted76_files):
    """The shared budget-comparison experiment: 20 unsupervised runs plus 20
    constrained runs at each budget, with per-run covers and stores kept for
    the cannot-link audit and the NMI_max comparison. Base seed 12345
    throughout."""
    edges, cover = planted76_files
    cfg_slpa = ExperimentConfig(edges=edges, truth=cover, runs=20, seed=12345)
    cfg_pc = ExperimentConfig(edges=edges, truth=cover, algorithm="pcslpa",
                              budget_pcts=(0.01, 0.05), runs=20, seed=12345)
    t0 = time.perf_counter()
    g, truth = load_experiment_inputs(cfg_slpa)
    slpa_cells = [run_cell(g, truth, cfg_slpa, "slpa", 0.0, i) for i in range(cfg_slpa.runs)]
    slpa_elapsed = time.perf_counter() - t0

    t1 = time.perf_counter()
    gp, tp = load_experiment_inputs(cfg_pc)
    pc_cells = {}
    for algo, pct in experiment_cells(cfg_pc):
        pc_cells[pct] = [run_cell(gp, tp, cfg_pc, algo, pct, i) for i in range(cfg_pc.runs)]
    pc_elapsed = time.perf_counter() - t1

    def mean(rows):
        return statistics.fmean(r.nmi for r in rows)

    return {
        "cfg_slpa": cfg_slpa,
        "cfg_pc": cfg_pc,
        "graph": gp,
        "truth": tp,
        "slpa_cells": slpa_cells,
        "pc_cells": pc_cells,
        "slpa_mean": mean([c[0] for c in slpa_cells]),
        "pc_means": {pct: mean([c[0] for c in cells]) for pct, cells in pc_cells.items()},
        "slpa_elapsed": slpa_elapsed,
        "pc_elapsed": pc_elapsed,
    }


def test_criterion_1_metric_matches_independent_oracle():
    rng = random.Random(701)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = rng.randint(2, 30)
        nodes = list(range(n))
        universe = set(nodes)
        x = random_cover(rng, nodes, 6)
        y = random_cover(rng, nodes, 6)
        fast = overlapping_nmi(x, y, universe)
        slow = naive_overlapping_nmi(as_sets(x), as_sets(y), universe)
        worst = max(worst, abs(fast - slow))
        assert abs(fast - slow) <= 1e-9
        assert abs(fast - overlapping_nmi(y, x, universe)) <= 1e-12
        assert 0.0 <= fast <= 1.0
        assert overlapping_nmi(x, x, universe) == pytest.approx(1.0, abs=1e-12)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    check(1, ok, f"max |fast-oracle| {worst:.2e} over 200 cover pairs, {elapsed:.2f}s")


def test_criterion_2_perfect_recovery_of_disjoint_cliques(chain20_files):
    edges, cover = chain20_files
    cfg = ExperimentConfig(edges=edges, truth=cover, runs=20, seed=0)
    g, truth = load_experiment_inputs(cfg)
    universe = truth.nodes()
    t0 = time.perf_counter()
    perfect = 0
    for seed in range(20):
        c = run_slpa(g, SlpaParams(iterations=100, threshold=0.1, seed=seed))
        if overlapping_nmi(truth, c, universe) == pytest.approx(1.0, abs=1e-12):
            perfect += 1
    elapsed = time.perf_counter() - t0
    ok = perfect >= 18 and elapsed < 5.0
    check(2, ok, f"perfect recovery in {perfect}/20 runs, {elapsed:.2f}s")


def test_criterion_3_empty_store_reduces_to_unsupervised(chain20_files):
    edges, cover = chain20_files
    cfg = ExperimentConfig(edges=edges, truth=cover, runs=20, seed=0)
    g, _ = load_experiment_inputs(cfg)
    equal = 0
    for seed in range(20):
        base = SlpaParams(iterations=100, threshold=0.1, seed=seed)
        if run_slpa(g, base) == run_pcslpa_report(g, ConstraintStore(), base)[0]:
            equal += 1
    check(3, equal >= 18, f"identical covers on {equal}/20 matched seeds")


def test_criterion_4_constraints_beat_unsupervised_boundary(experiment_data):
    data = experiment_data
    slpa_mean = data["slpa_mean"]
    pc5 = data["pc_means"][0.05]
    elapsed = data["slpa_elapsed"] + data["pc_elapsed"]
    assert elapsed < 120.0, f"comparison took {elapsed:.1f}s"
    ok = pc5 >= slpa_mean + 0.02
    check(4, ok,
          f"pcslpa@5% mean {pc5:.4f} vs slpa mean {slpa_mean:.4f} (needs >= +0.02), "
          f"{elapsed:.1f}s")


def test_criterion_5_more_budget_does_not_hurt(experiment_data):
    data = experiment_data
    pc1 = data["pc_means"][0.01]
    pc5 = data["pc_means"][0.05]
    elapsed = data["slpa_elapsed"] + data["pc_elapsed"]
    assert elapsed < 300.0, f"comparison took {elapsed:.1f}s"
    ok = pc5 >= pc1 - 0.01
    check(5, ok, f"pcslpa@5% mean {pc5:.4f} vs @1% mean {pc1:.4f} (allowed -0.01), "
          f"{elapsed:.1f}s")


def test_criterion_6_outputs_respect_cannot_links(experiment_data):
    data = experiment_data
    co_occurrences = 0
    guard_hits = 0
    audited = 0
    for cells in data["pc_cells"].values():
        for result, cover, store in cells:
            audited += 1
            guard_hits += result.cl_guard_exceptions
            for u, v in store.cl:
                for comm in cover.communities:
                    if u in comm and v in comm:
                        co_occurrences += 1
    ok = co_occurrences == 0 and guard_hits == 0
    check(6, ok, f"{co_occurrences} cannot-link co-occurrences, "
          f"{guard_hits} guard hits across {audited} constrained runs")


def test_criterion_7_selection_invariants(experiment_data):
    g = experiment_data["graph"]
    truth = experiment_data["truth"]
    # exact decimal floors, including two floats whose product rounds low
    assert budget_queries(0.01, 1000) == 4995
    assert budget_queries(0.7, 76) == 1995
    assert budget_queries(0.29, 225) == 7308
    problems = []
    for pct in (0.01, 0.05):
        budget = budget_queries(pct, g.n)
        assert budget == int(pct * g.n * (g.n - 1) / 2 + 1e-9)
        for seed in range(3):
            oracle = CountingOracle(GroundTruthOracle(truth))
            store = select_constraints(g, oracle, budget, rng=random.Random(seed))
            if len(oracle.queried) != len(set(oracle.queried)):
                problems.append(f"duplicate query at pct={pct} seed={seed}")
            if store.queries_used != budget:
                problems.append(f"budget mismatch {store.queries_used} != "
                                f"{budget} at pct={pct} seed={seed}")
            if not store.ml.isdisjoint(store.cl):
                problems.append(f"ml/cl overlap at pct={pct} seed={seed}")
            for u, v in store.ml:
                if not set(truth.memberships(u)) & set(truth.memberships(v)):
                    problems.append(f"ml pair ({u},{v}) contradicts truth")
            for u, v in store.cl:
                if set(truth.memberships(u)) & set(truth.memberships(v)):
                    problems.append(f"cl pair ({u},{v}) contradicts truth")
    check(7, not problems, "; ".join(problems) if problems
          else "exact budgets, no duplicates, disjoint and consistent relations")


def test_criterion_8_byte_identical_repeats(chain20_files, experiment_data):
    edges, cover = chain20_files
    cfg = ExperimentConfig(edges=edges, truth=cover, runs=20, seed=12345)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    csv_a = results_csv(first, include_timing=False)
    csv_b = results_csv(second, include_timing=False)
    same_unsup = csv_a == csv_b and sweep_report(first) == sweep_report(second)

    # the constrained experiment must also reproduce the fixture's results
    fresh = run_experiment(experiment_data["cfg_pc"])
    fixture_rows = [c[0] for pct in sorted(experiment_data["pc_cells"])
                    for c in experiment_data["pc_cells"][pct]]
    same_constrained = (results_csv(fresh, include_timing=False)
                        == results_csv(fixture_rows, include_timing=False))
    ok = same_unsup and same_constrained
    check(8, ok, f"unsupervised repeat identical: {same_unsup}, "
          f"constrained repeat identical: {same_constrained}")


def test_criterion_9_win_loss_accounting_is_complete():
    rng = random.Random(31)
    names = [f"algo{i}" for i in range(5)]
    scores = {name: [round(rng.random(), 3) for _ in range(32)] for name in names}
    # inject some exact ties so the tie path is exercised
    for k in range(0, 32, 8):
        scores[names[1]][k] = scores[names[0]][k]
    table = win_loss_table(scores)
    idx = {name: i for i, name in enumerate(table.algorithms)}
    complete = True
    for a in names:
        for b in names:
            if a == b:
                continue
            i, j = idx[a], idx[b]
            if table.wins[i][j] + table.wins[j][i] + table.ties[i][j] != 32:
                complete = False
    denom = table.networks * (len(table.algorithms) - 1)
    ok = complete and denom == 128 and "/128" in table.to_csv() and "/128" in table.to_text()
    check(9, ok, f"wins+losses+ties = 32 for all pairs, rank denominator {denom}")


def test_criterion_10_real_data_workflow_documented():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    documented = "0.96" in text and "filter-truth" in text
    check(10, documented, "real-data workflow and expected score range documented in README"
          if documented else "README is missing the real-data workflow section")


def test_criterion_11_constraints_beat_unsupervised_under_nmi_max(experiment_data):
    data = experiment_data
    truth = data["truth"]

    def mean(cells):
        return statistics.fmean(nmi_max(truth, cover, truth.nodes()) for _, cover, _ in cells)

    slpa, pc1, pc5 = (mean(data["slpa_cells"]), mean(data["pc_cells"][0.01]),
                      mean(data["pc_cells"][0.05]))
    check(11, pc5 > slpa, f"NMI_max: pcslpa@5% mean {pc5:.4f} vs slpa mean {slpa:.4f} "
          f"(pcslpa@1% {pc1:.4f})")
