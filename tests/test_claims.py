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


def instance_table() -> dict[int, tuple[tuple, list[str]]]:
    """{n: (generator arguments, [slpa, pcslpa 1%, pcslpa 5%] cells)} of the
    three-instance table, each instance read from its row label."""
    lines = known_limitation().split("\n| planted instance |", 1)[1].splitlines()
    rows = {}
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        label, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        comms, size, overlap, p_in, p_out, n = re.fullmatch(
            r"(\d+) x (\d+), (?:overlap (\d+)|disjoint), p_in ([\d.]+), p_out ([\d.]+)"
            r" \(n=(\d+)\b.*", label).groups()
        args = (int(comms), int(size), int(overlap or 0), float(p_in), float(p_out))
        rows[int(n)] = (args, cells)
    return rows


def table_runs() -> tuple[int, int, int]:
    """(base seed, runs on the 76-node instance, runs on the others), as the
    sentence above the three-instance table states them."""
    prose = " ".join(known_limitation().split())
    return tuple(map(int, re.search(
        r"base seed (\d+) \((\d+) runs on the 76-node instance, (\d+) runs on the others\)",
        prose).groups()))


PLANTED76 = (4, 25, 8, 0.3, 0.05)


def write_instance(root: Path, args: tuple) -> tuple[Path, Path]:
    """Edge and truth files of gen_planted_overlap(*args, seed=0)."""
    g, truth = gen_planted_overlap(*args, seed=0)
    edges, cover = root / f"planted{g.n}.txt", root / f"planted{g.n}_truth.txt"
    write_edge_list(g, edges)
    write_cover(truth, cover, g.ids)
    return edges, cover


def cell_means(files: tuple[Path, Path], seed: int, pct: float, runs: int) -> tuple[float, float]:
    """(LFK, NMI_max) means of slpa (pct 0) or pcslpa at pct over runs runs."""
    edges, cover = files
    cfg = ExperimentConfig(edges=edges, truth=cover, runs=runs, seed=seed)
    g, truth = load_experiment_inputs(cfg)
    algo = "slpa" if pct == 0.0 else "pcslpa"
    cells = [run_cell(g, truth, cfg, algo, pct, i) for i in range(runs)]
    return (statistics.fmean(r.nmi for r, _, _ in cells),
            statistics.fmean(nmi_max(truth, c, truth.nodes()) for _, c, _ in cells))


def instance_cell(means: tuple[float, float]) -> str:
    return "{:.3f} / {:.3f}".format(*means)


@pytest.fixture(scope="module")
def planted76(tmp_path_factory):
    return write_instance(tmp_path_factory.mktemp("claims76"), PLANTED76)


@pytest.fixture(scope="module")
def seed_means(planted76):
    """{base seed: (slpa LFK, pcslpa@5% LFK, slpa NMI_max, pcslpa@5% NMI_max)},
    each a mean over 20 runs, for every seed of the table."""
    means = {}
    for row in seed_table():
        seed = int(row[0])
        (slpa, slpa_max), (pc5, pc5_max) = (cell_means(planted76, seed, pct, 20)
                                            for pct in (0.0, 0.05))
        means[seed] = (slpa, pc5, slpa_max, pc5_max)
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


def test_instance_table_small_row_reproduces(planted76, seed_means):
    """The n=76 row; its slpa and 5% cells are the seed table's first runs."""
    table = instance_table()
    assert sorted(table) == [76, 1000, 1610]
    args, cells = table[76]
    seed, runs, _ = table_runs()
    assert (args, runs) == (PLANTED76, 20)
    slpa, pc5, slpa_max, pc5_max = seed_means[seed]
    pc1 = cell_means(planted76, seed, 0.01, runs)
    assert cells == [instance_cell(m) for m in ((slpa, slpa_max), pc1, (pc5, pc5_max))]


@pytest.mark.parametrize("n", [1000, 1610])
def test_instance_table_large_row_reproduces(n, tmp_path):
    args, cells = instance_table()[n]
    seed, _, runs = table_runs()
    files = write_instance(tmp_path, args)
    assert cells == [instance_cell(cell_means(files, seed, pct, runs))
                     for pct in (0.0, 0.01, 0.05)]
