"""Self-test of the benchmark on chain76 with few runs.

    python3 bench/selftest.py

Checks that
1. the bench's cell sequence reproduces `pcslpa sweep --no-timing --raw-out`
   byte for byte (raw CSV and sweep report);
2. a traced unit gives the same per-run NMI and raw CSV as a plain one, so
   the span wrappers do not perturb the random stream;
3. the output checks reject a broken constraint file and a cannot-link pair
   placed in one community;
4. BENCHMARK.json names exactly the workloads and metrics the bench reports.
It also reports whether the frozen generator still matches `pcslpa.planted`;
a later change to the program's generator is allowed to make them differ.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from instances import CHAIN76, CHAIN1610, planted_chain_text  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Runner, check_cell, check_constraint_file  # noqa: E402

from pcslpa import cli  # noqa: E402
from pcslpa.graph import Cover, write_cover, write_edge_list  # noqa: E402
from pcslpa.planted import gen_planted_overlap  # noqa: E402

RUNS = 3
SEED = 7


def sweep_matches_cli(runner: Runner, work: Path) -> list[str]:
    unit = runner.run_unit(0)
    edges, truth = runner.files[CHAIN76.name]
    cfg = runner.sweep_configs(0)[1]
    raw, report = work / "cli-raw.csv", work / "cli-report.csv"
    argv = ["sweep", "--net", CHAIN76.name, str(edges), str(truth), "--runs", str(RUNS),
            "--seed", str(cfg.seed), "--no-timing", "--raw-out", str(raw), "--out", str(report)]
    for pct in cfg.budget_pcts:
        argv += ["--budget-pct", str(pct)]
    if cli.main(argv) != 0:
        return ["pcslpa sweep failed"]
    problems = list(unit.problems)
    if raw.read_text(encoding="utf-8") != unit.raw:
        problems.append("bench raw CSV differs from pcslpa sweep --raw-out")
    if report.read_text(encoding="utf-8") != unit.report:
        problems.append("bench sweep report differs from pcslpa sweep --out")
    return problems


def traced_matches_plain(runner: Runner) -> list[str]:
    plain = runner.run_unit(1)
    tracer = Tracer()
    traced = runner.run_unit(1, tracer)
    problems = []
    if plain.nmis() != traced.nmis() or plain.raw != traced.raw:
        problems.append("traced unit differs from plain unit")
    if tracer.absent:
        problems.append(f"absent spans: {tracer.absent}")
    if not any(s.name == "constrained_evaluation_pass" for s in tracer.spans):
        problems.append("tracer recorded no propagation passes")
    return problems


def checks_reject_faults(runner: Runner, work: Path) -> list[str]:
    problems = []
    bad = work / "bad-constraints.txt"
    bad.write_text("0 1 ML\n1 0 ML\n0 99 ML\n", encoding="utf-8")
    _, found = check_constraint_file(bad, runner.truth_tokens[CHAIN76.name], 3)
    if len(found) < 2:
        problems.append(f"constraint-file check missed a fault: {found}")
    cell = runner.run_unit(2).cells[-1]
    u, v = sorted(cell.store.cl)[0]
    merged = Cover(list(cell.cover.communities) + [{u, v}])
    if not check_cell(cell.result, merged, cell.store, cell.store.queries_used):
        problems.append("cell check missed a cannot-link pair sharing a community")
    return problems


def benchmark_json_matches() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [
            (w.name, w.why) for w in WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    return problems


def generator_note() -> str:
    notes = []
    for inst in (CHAIN76, CHAIN1610):
        g, truth = gen_planted_overlap(*inst.generator_args())
        edges, cover = io.StringIO(), io.StringIO()
        write_edge_list(g, edges)
        write_cover(truth, cover, g.ids)
        same = (edges.getvalue(), cover.getvalue()) == planted_chain_text(*inst.generator_args())
        notes.append(f"{inst.name} (n={g.n}, m={g.m}) {'matches' if same else 'differs from'}")
    return "frozen generator vs pcslpa.planted: " + "; ".join(notes)


def main() -> int:
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        work = Path(tmp)
        workload = dataclasses.replace(WORKLOADS["chain76"], runs=RUNS)
        runner = Runner(workload, SEED, work, per_layer=True)
        runner.write_inputs()
        runner.setup_once()
        failures = 0
        for name, check in (
                ("sweep sequence equals pcslpa sweep", lambda: sweep_matches_cli(runner, work)),
                ("traced NMI equals plain NMI", lambda: traced_matches_plain(runner)),
                ("output checks reject faults", lambda: checks_reject_faults(runner, work)),
                ("BENCHMARK.json matches the bench", benchmark_json_matches)):
            problems = check()
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {name}")
            for p in problems:
                print(f"     {p}")
        print(generator_note())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
