"""The README's quality claims, recomputed from the package.

Each test parses a table or a sentence of README.md and checks it against a
fresh computation, so a change that moves a printed figure fails here until
the README says what the code now does.
"""

from __future__ import annotations

import re
import statistics
from pathlib import Path

import pytest

from pcslpa.graph import write_cover, write_edge_list
from pcslpa.harness import ExperimentConfig, load_experiment_inputs, run_cell
from pcslpa.nmi import nmi_max
from pcslpa.planted import gen_planted_overlap

README = Path(__file__).resolve().parent.parent / "README.md"
MINUS = "−"


def known_limitation() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Known limitation\n", 1)[1].split("\n## ", 1)[0]


def seed_table() -> list[list[str]]:
    """The cells of each row of the base-seed table, in README order."""
    lines = known_limitation().split("\n| base seed |", 1)[1].splitlines()
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def margin_text(margin: float) -> str:
    return f"{margin:+.3f}".replace("-", MINUS)


@pytest.fixture(scope="module")
def planted76(tmp_path_factory):
    root = tmp_path_factory.mktemp("claims76")
    g, truth = gen_planted_overlap(4, 25, 8, 0.3, 0.05, seed=0)
    edges, cover = root / "planted76.txt", root / "planted76_truth.txt"
    write_edge_list(g, edges)
    write_cover(truth, cover, g.ids)
    return edges, cover


@pytest.fixture(scope="module")
def seed_means(planted76):
    """{base seed: (slpa LFK, pcslpa@5% LFK, slpa NMI_max, pcslpa@5% NMI_max)},
    each a mean over 20 runs, for every seed of the table."""
    edges, cover = planted76
    means = {}
    for row in seed_table():
        seed = int(row[0])
        cfg = ExperimentConfig(edges=edges, truth=cover, algorithm="pcslpa",
                               budget_pcts=(0.05,), runs=20, seed=seed)
        g, truth = load_experiment_inputs(cfg)
        cells = {algo: [run_cell(g, truth, cfg, algo, pct, i) for i in range(cfg.runs)]
                 for algo, pct in (("slpa", 0.0), ("pcslpa", 0.05))}
        lfk = [statistics.fmean(r.nmi for r, _, _ in cells[a]) for a in ("slpa", "pcslpa")]
        best = [statistics.fmean(nmi_max(truth, c, truth.nodes()) for _, c, _ in cells[a])
                for a in ("slpa", "pcslpa")]
        means[seed] = (*lfk, *best)
    return means


def test_seed_table_rows_reproduce(seed_means):
    rows = seed_table()
    assert len(rows) == 12
    wrong = []
    for row in rows:
        slpa, pc5, slpa_max, pc5_max = seed_means[int(row[0])]
        want = [row[0], f"{slpa:.4f}", f"{pc5:.4f}", margin_text(pc5 - slpa),
                f"{slpa_max:.4f}", f"{pc5_max:.4f}"]
        if row != want:
            wrong.append((row, want))
    assert wrong == []


def test_seed_table_prose_holds(seed_means):
    prose = " ".join(known_limitation().split())
    cleared, seeds = map(int, re.search(r"margin at only (\d+) of (\d+)", prose).groups())
    assert seeds == len(seed_means)
    assert cleared == sum(pc5 >= slpa + 0.02 for slpa, pc5, _, _ in seed_means.values())
    lead = float(re.search(r"NMI_max 5% beats SLPA by more than ([\d.]+) at every one",
                           prose).group(1))
    assert all(pc5_max - slpa_max > lead for _, _, slpa_max, pc5_max in seed_means.values())
