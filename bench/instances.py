"""Frozen copy of the planted-chain generator and the benchmark's fixed instances.

The bench generates its inputs here rather than through `pcslpa.planted`, so a
rewrite of the program's generator cannot silently change what the benchmark
measures. Each instance's edge and truth text is checked against a recorded
SHA-256 digest on every run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path


def planted_chain_text(n_comms: int, comm_size: int, overlap: int,
                       p_in: float, p_out: float, seed: int) -> tuple[str, str]:
    """(edge-list text, truth text) of a chain of communities.

    Same sampling as `pcslpa.planted.gen_planted_overlap` at the commit that
    introduced this benchmark: community i spans nodes
    [i*(size-overlap), i*(size-overlap)+size); every pair u<v, in row-major
    order, is an edge with probability p_in inside a community and p_out
    elsewhere. The text matches `write_edge_list` and `write_cover`: one
    sorted "u v" per line, and one community per line with sorted members.
    """
    step = comm_size - overlap
    n = comm_size + (n_comms - 1) * step
    communities = [range(i * step, i * step + comm_size) for i in range(n_comms)]
    intra = set()
    for comm in communities:
        for i, u in enumerate(comm):
            for v in comm[i + 1:]:
                intra.add((u, v))
    rng = random.Random(seed)
    lines = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if (u, v) in intra else p_out
            if p >= 1.0 or rng.random() < p:
                lines.append(f"{u} {v}\n")
    truth = "".join(" ".join(map(str, comm)) + "\n" for comm in communities)
    return "".join(lines), truth


@dataclass(frozen=True)
class Instance:
    name: str
    n_comms: int
    comm_size: int
    overlap: int
    p_in: float
    p_out: float
    generator_seed: int
    edges_sha256: str
    truth_sha256: str

    def generator_args(self) -> tuple:
        return (self.n_comms, self.comm_size, self.overlap, self.p_in, self.p_out,
                self.generator_seed)

    def write(self, directory: Path) -> tuple[Path, Path]:
        """Generate, check both digests, write `<name>.txt` and `<name>_truth.txt`.

        The edge file's stem is the network id that reports carry.
        """
        edges_text, truth_text = planted_chain_text(*self.generator_args())
        for label, text, want in (("edges", edges_text, self.edges_sha256),
                                  ("truth", truth_text, self.truth_sha256)):
            got = hashlib.sha256(text.encode()).hexdigest()
            if got != want:
                raise InputDigestError(f"{self.name} {label} digest {got} != recorded {want}")
        edges = directory / f"{self.name}.txt"
        truth = directory / f"{self.name}_truth.txt"
        edges.write_text(edges_text, encoding="utf-8")
        truth.write_text(truth_text, encoding="utf-8")
        return edges, truth


class InputDigestError(RuntimeError):
    """A generated instance differs from the one the benchmark was defined on."""


# Acceptance criterion 4's instance: n=76, m=421.
CHAIN76 = Instance(
    "chain76", 4, 25, 8, 0.3, 0.05, 0,
    edges_sha256="709e075af3cde9a5a0c53d9c35c10984042fac8baf99e0ae88586806a538ee20",
    truth_sha256="e9b5c6dbfedb2a7b68e6a595a2c3eb41526358adf01cfef27e569cb93e0ba292",
)

# Propagation-bound instance from the roadmap: n=1610, m=16,751.
CHAIN1610 = Instance(
    "chain1610", 40, 50, 10, 0.3, 0.002, 0,
    edges_sha256="9415ab6279d745ce35c3075e758f053465a535c44cc360d0baeb73e65430c574",
    truth_sha256="c25d105ece953b094349349a2a4f8c5ee1c9dffd8d591d5d9b449d72960b48ee",
)
