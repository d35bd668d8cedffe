"""Pinned digests of `pcslpa sweep` output on criterion 4's instance.

The propagation kernel and the repairs are sped up under one rule: the
covers, the repair counters and the random stream stay as they were. Each
case sweeps slpa and pcslpa at 1% and 5% through the command line, with
`--no-timing --raw-out`, and compares the SHA-256 digest of the per-run CSV
and of the report with digests recorded before the last such change. A
change that moves one draw moves the covers that follow it, and with them an
NMI or a repair counter in the CSV.

To re-record after a change that is meant to alter the covers, print
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
    1: "c06b90de376001015df691e8fa20bec93ea087c4ee8610cf46f83b34fe5ba719",
    2: "6f56503f01c7cb13719e11639a23d58d4acc317eafd1c01099cd2535290e9941",
    5: "eb2299c13845d3a9cc82f4e85c50ee0ed9d3b547274144a3e615d4ce0e1a614d",
    10: "053d9d5123f370d859c622166e3c2a83fb0a542adff8b6ba0b370af7485aeeb6",
    33: "09b76550892817c505e5c4221ca7464411dc7f8ebcb8aaa18f8f5f1bcecc1fb5",
    100: "88bc1d900c75ce00f008c2e238c3e8ea1ce98128a97e5e1a4018fe358a123cda",
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
