"""Pinned digests of `pcslpa sweep` output on criterion 4's instance and of
one pcslpa cell on chain1610.

A speed-up or refactor of the propagation kernel or the repairs must leave
the covers, the repair counters and the random stream as they were. The
first test sweeps slpa and pcslpa at 1% and 5% through the command line,
with `--no-timing --raw-out`, and compares the SHA-256 digest of the per-run
CSV and of the report with the recorded digest. A change that moves one draw
moves the covers that follow it, and with them an NMI or a repair counter in
the CSV. The second runs one pcslpa@5% cell of the benchmark's chain1610
instance (n=1610, base seed 12345, run 0), whose first repair merges 476
labels, and digests its cover and repair counters.

The digest was last re-recorded when `ml_exchanges` stopped counting
must-link pairs whose grant added nothing; the covers and every other column
stayed as they were. To re-record after a change that is meant to alter the
covers or the counters, print `sweep_digest(...)` and replace GOLDEN.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import astuple

import pytest

from pcslpa import constrained
from pcslpa.cli import main
from pcslpa.graph import load_cover, load_edge_list, write_cover, write_edge_list
from pcslpa.harness import ALGO_PCSLPA, ExperimentConfig, run_cell
from pcslpa.planted import gen_planted_overlap

RUNS = 3

GOLDEN = "c382531f983abb7a97d816340b70f6fcb17560060bab71bbd9e1c203d93865d1"

CHAIN1610_GOLDEN = "26cdafe30657936ecdc64bc21ea1f270185a1ffd7a3ebe66343586911edf8da5"


@pytest.fixture(scope="module")
def planted76(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    g, truth = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=0)
    edges, cover = root / "planted76.txt", root / "planted76_truth.txt"
    write_edge_list(g, edges)
    write_cover(truth, cover, g.ids)
    return edges, cover


def sweep_digest(edges, truth, out_dir) -> str:
    """SHA-256 of the raw CSV followed by the report of one sweep."""
    raw, report = out_dir / "raw.csv", out_dir / "report.csv"
    rc = main(["sweep", "--net", "planted76", str(edges), str(truth),
               "--budget-pct", "0.01", "--budget-pct", "0.05", "--runs", str(RUNS),
               "--no-timing", "--raw-out", str(raw), "--out", str(report)])
    assert rc == 0
    return hashlib.sha256(raw.read_bytes() + report.read_bytes()).hexdigest()


def test_sweep_output_matches_the_pinned_digest(planted76, tmp_path):
    edges, truth = planted76
    assert sweep_digest(edges, truth, tmp_path) == GOLDEN


def test_chain1610_pcslpa_cell_matches_the_pinned_digest(monkeypatch):
    g, truth = gen_planted_overlap(40, 50, 10, 0.3, 0.002, seed=0)
    edges, cover = io.StringIO(), io.StringIO()
    write_edge_list(g, edges)
    write_cover(truth, cover, g.ids)
    g = load_edge_list(io.StringIO(edges.getvalue()))
    truth = load_cover(io.StringIO(cover.getvalue()), g.ids)
    cfg = ExperimentConfig("chain1610.txt", "chain1610_truth.txt", algorithm=ALGO_PCSLPA,
                           budget_pcts=(0.05,), seed=12345)
    merges = []
    merge = constrained.merge_linked_labels

    def counting_merge(memories, ml_pairs, report, partner_tops):
        before = report.label_merges
        renamed = merge(memories, ml_pairs, report, partner_tops)
        merges.append(report.label_merges - before)
        return renamed

    monkeypatch.setattr(constrained, "merge_linked_labels", counting_merge)
    result, cover, _ = run_cell(g, truth, cfg, ALGO_PCSLPA, 0.05, 0)
    assert len(merges) == 20 and merges[0] == 476
    text = "".join(" ".join(map(str, sorted(c))) + "\n" for c in cover.communities)
    counters = astuple(result)[6:]
    digest = hashlib.sha256(f"{text}{counters}\n".encode()).hexdigest()
    assert digest == CHAIN1610_GOLDEN
