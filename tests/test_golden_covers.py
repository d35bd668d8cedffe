"""Pinned digests of `pcslpa sweep` output on criterion 4's instance.

A speed-up or refactor of the propagation kernel or the repairs must leave
the covers, the repair counters and the random stream as they were. Each
case sweeps slpa and pcslpa at 1% and 5% through the command line, with
`--no-timing --raw-out`, and compares the SHA-256 digest of the per-run CSV
and of the report with the recorded digests. A change that moves one draw
moves the covers that follow it, and with them an NMI or a repair counter in
the CSV.

The digests were last re-recorded when `ml_exchanges` stopped counting
must-link pairs whose grant added nothing; the covers and every other column
stayed as they were. To re-record after a change that is meant to alter the
covers or the counters, print `sweep_digest(...)` for every case and replace
GOLDEN.
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
    1: "ac87b6ac8044c464ebc2e9fce90cc441b4996a0a33c54c864a11129b87a1889f",
    2: "96b508097d9ad0b976bcb4c5a96e897e6abf52689ca436244b7f3212186676e0",
    5: "c382531f983abb7a97d816340b70f6fcb17560060bab71bbd9e1c203d93865d1",
    10: "8161394c1d8866617e8ffe0068108c9240dd26999167847bece8297c527f71e0",
    33: "2120b643cd123b5b7cd9d6fb6f808794589de1ffb359211b9146cfe1c7de06f5",
    100: "30fae6d9c38898ae8ce436d9c36ff099002b1c3b3558c54a6bd3a7c55ce92326",
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
    rc = main(["sweep", "--net", "planted76", str(edges), str(truth),
               "--budget-pct", "0.01", "--budget-pct", "0.05", "--runs", str(RUNS),
               "--repair-every", str(repair_every),
               "--no-timing", "--raw-out", str(raw), "--out", str(report)])
    assert rc == 0
    return hashlib.sha256(raw.read_bytes() + report.read_bytes()).hexdigest()


@pytest.mark.parametrize("repair_every", sorted(GOLDEN))
def test_sweep_output_matches_the_pinned_digest(planted76, tmp_path, repair_every):
    edges, truth = planted76
    assert sweep_digest(edges, truth, tmp_path, repair_every) == GOLDEN[repair_every]
