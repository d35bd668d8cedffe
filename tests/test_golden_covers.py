"""Pinned digests of `pcslpa sweep` output on criterion 4's instance.

A speed-up or refactor of the propagation kernel or the repairs must leave
the covers, the repair counters and the random stream as they were. Each
case sweeps slpa and pcslpa at 1% and 5% through the command line, with
`--no-timing --raw-out`, and compares the SHA-256 digest of the per-run CSV
and of the report with the recorded digests. A change that moves one draw
moves the covers that follow it, and with them an NMI or a repair counter in
the CSV.

The digests were last re-recorded when the constrained run lost its orphan
placement and must-link repair became a grant that never moves a top. To
re-record after a change that is meant to alter the covers, print
`sweep_digest(...)` for every case and replace GOLDEN.
"""

from __future__ import annotations

import hashlib

import pytest

from pcslpa.cli import main
from pcslpa.graph import write_cover, write_edge_list
from pcslpa.planted import gen_planted_overlap

RUNS = 3

# keyed by --repair-every
GOLDEN = {
    1: "38410bbde803733be4217ccecf62e417ca34ef22d409198b66a3ff0e86fa62a0",
    2: "409f9d04468902d7d6aeb4f49c9883c7d83a69987ac70be2dea1bbaeffc395bc",
    5: "c949a85aff51b6d3e46cf37b14e22c3f12c93b6a2be91aadda51898572abb8f3",
    10: "58bee96563131d533eacab53170f14c486c917f55195b1cbd1d747ed08f492fc",
    33: "22cf26c4072531708303fb3378cfbe40df729496a8c86694a71e6710fa0722d8",
    100: "eede8d2ff0b4c8672d4bc2809ed592cf0e548c85cc6ba6474de70dc6c9301d47",
}


@pytest.fixture(scope="module")
def planted76(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    g, truth = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=0)
    edges, cover = root / "planted76.txt", root / "planted76_truth.txt"
    write_edge_list(g, edges)
    write_cover(truth, cover, g.ids)
    return edges, cover


def sweep_digest(edges, truth, out_dir, repair_every: int) -> str:
    """SHA-256 of the raw CSV followed by the report of one sweep."""
    raw, report = out_dir / "raw.csv", out_dir / "report.csv"
    rc = main(["sweep", "--edges", str(edges), "--truth", str(truth),
               "--budget-pct", "0.01", "--budget-pct", "0.05", "--runs", str(RUNS),
               "--repair-every", str(repair_every),
               "--no-timing", "--raw-out", str(raw), "--out", str(report)])
    assert rc == 0
    return hashlib.sha256(raw.read_bytes() + report.read_bytes()).hexdigest()


@pytest.mark.parametrize("repair_every", sorted(GOLDEN))
def test_sweep_output_matches_the_pinned_digest(planted76, tmp_path, repair_every):
    edges, truth = planted76
    assert sweep_digest(edges, truth, tmp_path, repair_every) == GOLDEN[repair_every]
