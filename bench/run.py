"""Sweep benchmark for pcslpa.

    python3 bench/run.py --workload chain76 --seed 1 --seconds 36 --trace 0

Run from the repository root. It generates the workload's planted instances
(bench/instances.py, digests checked), loads them several times to time
set-up, then repeats the workload's unit (bench/workloads.py) until the next
unit would overrun --seconds, checking every output.

--trace 0 prints the end-to-end metrics. --trace 1 runs each unit twice with
the same seeds, once plain and once with spans timed around the program's
functions (bench/spans.py), checks that both give identical NMI, and prints
the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's details (environment, seeds, tail latency, failure fraction).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUPS = 25


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(workload, seed, units) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "generator_seeds": {i.name: i.generator_seed for i in workload.instances()},
        "run_seed": seed,
        "sweep_seeds": sorted({workload.sweep_seed(seed, u.index) for u in units}),
        "select_seeds": sorted({s for u in units for s in workload.select_seeds(seed, u.index)}),
    }


def run_units(runner, seconds: float, tracer):
    """Units (or plain/traced twin pairs) until the next would overrun."""
    plain, traced_units = [], []
    started = perf_counter()
    index = 0
    longest = 0.0
    while True:
        t0 = perf_counter()
        if tracer is not None:
            # alternate which twin goes first so warm-up effects cancel
            order = (False, True) if index % 2 == 0 else (True, False)
            for with_trace in order:
                unit = runner.run_unit(index, tracer if with_trace else None)
                (traced_units if with_trace else plain).append(unit)
        else:
            plain.append(runner.run_unit(index))
        index += 1
        longest = max(longest, perf_counter() - t0)
        # the machine's speed drifts by up to half over tens of seconds, so
        # leave room for the next unit to run slower than any before it
        if perf_counter() - started + 1.25 * longest > seconds:
            return plain, traced_units


def twin_mismatches(plain, traced_units) -> list[str]:
    return [f"unit {p.index}: NMI differs between plain and traced run"
            for p, t in zip(plain, traced_units) if p.nmis() != t.nmis()]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pcslpa" / "__init__.py").is_file():
        print(f"error: no pcslpa sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import metrics
    from instances import InputDigestError
    from spans import Tracer
    import workloads
    from workloads import WORKLOADS, Runner

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(workload, args.seed, WORK, per_layer=bool(args.trace))
    try:
        runner.write_inputs()
    except InputDigestError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    tracer = Tracer() if args.trace else None
    setup_seconds = [runner.setup_once(tracer) for _ in range(SETUPS)]

    plain, traced_units = run_units(runner, args.seconds, tracer)
    units = plain + traced_units
    problems = [p for u in units for p in u.problems]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    if args.trace:
        mismatches = twin_mismatches(plain, traced_units)
        problems += mismatches
        attempted += len(traced_units)
        failed += len(mismatches)
        values = metrics.per_layer(tracer, runner, traced_units, [u.wall for u in plain], SETUPS)
        values = {k: v for k, v in values.items()
                  if not any(src in tracer.absent for src in metrics.span_sources(k))}
        units_table = metrics.PER_LAYER
        tracer.write_jsonl(WORK / f"spans-{workload.name}-{args.seed}.jsonl")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.end_to_end(workload, setup_seconds, plain, rss_mb)
        units_table = metrics.END_TO_END
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "units": len(plain),
        "traced_units": len(traced_units),
        "environment": environment(workload, args.seed, units),
        "input_sha256": {i.name: [i.edges_sha256, i.truth_sha256] for i in workload.instances()},
        "cell_s.tail": metrics.tail([c.seconds for u in plain for c in u.cells]),
        "op_seconds": metrics.op_summary(workload, plain),
        "speed": statistics.median(workloads.REF_NOMINAL_S / r for r in runner.references),
        "fail_frac": failed / attempted if attempted else 1.0,
        "absent_spans": tracer.absent if tracer is not None else [],
        "missing_metrics": sorted(set(units_table) - set(values)),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units_table.items() if name in values},
    }
    (WORK / f"result-{workload.name}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
