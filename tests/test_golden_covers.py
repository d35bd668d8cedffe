"""Pinned digest of `pcslpa sweep` output on criterion 4's instance.

A speed-up or refactor of the propagation kernel or the repairs must leave
the covers, the repair counters and the random stream as they were. The
test sweeps slpa and pcslpa at 1% and 5% through the command line, with
`--no-timing --raw-out`, and compares the SHA-256 digest of the per-run CSV
and of the report with the recorded digest. A change that moves one draw
moves the covers that follow it, and with them an NMI or a repair counter in
the CSV.

The digest was last re-recorded when `ml_exchanges` stopped counting
must-link pairs whose grant added nothing; the covers and every other column
stayed as they were. To re-record after a change that is meant to alter the
covers or the counters, print `sweep_digest(...)` and replace GOLDEN.
"""

from __future__ import annotations

import hashlib

import pytest

from pcslpa.cli import main
from pcslpa.graph import write_cover, write_edge_list
from pcslpa.planted import gen_planted_overlap

RUNS = 3

GOLDEN = "c382531f983abb7a97d816340b70f6fcb17560060bab71bbd9e1c203d93865d1"


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
