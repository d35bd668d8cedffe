"""Pinned digests of `pcslpa select-constraints` output.

Selection is sped up under the same rule as the propagation kernel: the
stores, the constraint files and the random stream stay as they were. Each
case runs `select-constraints` through the command line and compares the
SHA-256 digest of the constraint file with a digest recorded before the last
such change. The cases are criterion 4's instance at 1%, 5% and 100% (the
last takes the sampler's dense branch), a chain of 328 nodes at 5%, and the
benchmark's 1,610-node chain at 5% (64,762 queries). There, after a random
round of 32,381 pairs, seed 0 cuts its fifth closure round to 252 of 5,127
open pairs, and seed 1 reaches closure after eleven rounds and spends the
rest on a second random round. A change that moves one draw moves every
pair selected after it.

To re-record after a change that is meant to alter the selection, print
`selection_digest(...)` for every case and replace GOLDEN.
"""

from __future__ import annotations

import hashlib

import pytest

from pcslpa.cli import main
from pcslpa.graph import write_cover, write_edge_list
from pcslpa.planted import gen_planted_overlap

INSTANCES = {
    "planted76": (4, 25, 8, 0.3, 0.05),
    "chain328": (10, 40, 8, 0.3, 0.01),
    "chain1610": (40, 50, 10, 0.3, 0.002),
}

GOLDEN = {
    ("planted76", 0.01, 12345):
        "749d3b3baffcc7d7752497ec3173a5672ae2f59a1b9c60f13026e83c932202fe",
    ("planted76", 0.05, 12345):
        "068bf798e27580ae5dcdd511bc596c47faa3b7dc6afc526beba777806f83a59c",
    ("planted76", 1.0, 12345):
        "badac5ab37f5139484b5774a8ee6dc379b49eb96a364ef7dc8c2daacd1148b2f",
    ("chain328", 0.05, 0):
        "a02a7c96e0912b12b1bb707bf159720d28aa4a72815835c4091bd55dedac8140",
    ("chain328", 0.05, 1):
        "6cfd3a641db99d79c953b83c2547160001c62cbf1ea712da578e1191dd261b96",
    ("chain328", 0.05, 2):
        "d1d4d74ec1b09177c9ebc9f86073dad9bc2983cf4c605d81fb729bbdbad0c562",
    ("chain1610", 0.05, 0):
        "898fa5ce386057d691526d40b7d4ca1b0e1570ec8d420cc81f2e306e7ddd45c4",
    ("chain1610", 0.05, 1):
        "d9be7473e8f2a5f8ce5954fd9381c11a6d54dffc2296781974dd04f38f5652c3",
}


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_selection")
    paths = {}
    for name, params in INSTANCES.items():
        g, truth = gen_planted_overlap(*params, seed=0)
        edges, cover = root / f"{name}.txt", root / f"{name}_truth.txt"
        write_edge_list(g, edges)
        write_cover(truth, cover, g.ids)
        paths[name] = edges, cover
    return paths


def selection_digest(edges, truth, out, pct: float, seed: int) -> str:
    """SHA-256 of the constraint file of one selection."""
    rc = main(["select-constraints", "--edges", str(edges), "--truth", str(truth),
               "--budget-pct", str(pct), "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, pct, seed", sorted(GOLDEN))
def test_selection_output_matches_the_pinned_digest(instances, tmp_path, name, pct, seed):
    edges, truth = instances[name]
    assert selection_digest(edges, truth, tmp_path / "constraints.txt", pct, seed) == \
        GOLDEN[name, pct, seed]
