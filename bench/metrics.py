"""End-to-end metrics from untraced units, per-layer metrics from traced ones.

End-to-end times are at the machine's nominal speed (workloads.reference_seconds).
Per-layer times are raw self times in seconds per unit, except graph.load_*
which are seconds per set-up. Per-layer counts are per unit; cover.* are means over
the cells of one algorithm (pcslpa at the workload's highest budget).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

import pcslpa.constrained
from pcslpa.nmi import cover_stats

from spans import Span, self_times

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_s.slpa.p50": "s",
    "cell_s.pcslpa.p50": "s",
    "select_call_s.p50": "s",
    "nmi_mean.slpa": "nmi",
    "nmi_mean.pcslpa": "nmi",
    "peak_rss_mb": "MB",
}

# Self-time metrics that together partition a unit's wall time.
LAYER_TIMES = (
    "harness.cell_self_s", "harness.report_s", "cli.select_self_s",
    "constraints.select_s", "constraints.triads_s", "constraints.write_s",
    "slpa.init_s", "slpa.pass_s", "slpa.post_s",
    "constrained.init_s", "constrained.pass_s", "constrained.repair_ml_s",
    "constrained.repair_cl_s", "constrained.post_s", "nmi.score_s",
)

PER_LAYER = {
    "graph.load_edges_s": "s", "graph.load_truth_s": "s",
    **{name: "s" for name in LAYER_TIMES},
    "constraints.triads_share": "ratio", "constraints.triad_calls": "count",
    "constraints.queries": "count", "constraints.ml": "count", "constraints.cl": "count",
    "constraints.eligible_pairs": "count", "constraints.query_frac": "ratio",
    "slpa.speaks": "count", "slpa.speaks_per_s": "1/s", "slpa.pass_growth": "ratio",
    "constrained.speaks": "count", "constrained.speaks_per_s": "1/s",
    "constrained.pass_growth": "ratio",
    "constrained.ml_exchanges": "count", "constrained.ml_blocked": "count",
    "constrained.cl_deletions": "count", "constrained.cl_guard": "count",
    **{f"cover.{algo}.{stat}": unit for algo in ("slpa", "pcslpa")
       for stat, unit in (("communities", "count"), ("orphans", "count"),
                          ("overlap_frac", "ratio"))},
    "nmi.comm_pairs": "count",
    "trace.overhead_frac": "ratio", "trace.attributed_frac": "ratio",
}


# Program bindings each per-layer metric is timed through (see spans.WRAPPED);
# if one is absent, the metric is dropped rather than reported as zero.
_BINDINGS = {
    "graph.load_edges_s": ("harness.load_edge_list",),
    "graph.load_truth_s": ("harness.load_cover",),
    "constraints.select_s": ("harness.select_constraints", "cli.select_constraints"),
    "constraints.triads_s": ("constraints.find_forbidden_triads",),
    "constraints.triad_calls": ("constraints.find_forbidden_triads",),
    "constraints.triads_share": ("constraints.find_forbidden_triads",),
    "constraints.write_s": ("cli.write_constraints",),
    "slpa.init_s": ("harness.run_slpa",),
    "slpa.pass_s": ("slpa.evaluation_pass",),
    "slpa.pass_growth": ("slpa.evaluation_pass",),
    "slpa.speaks_per_s": ("slpa.evaluation_pass",),
    "slpa.post_s": ("slpa.post_process",),
    "constrained.init_s": ("constrained.init_constrained",),
    "constrained.pass_s": ("constrained.constrained_evaluation_pass",),
    "constrained.pass_growth": ("constrained.constrained_evaluation_pass",),
    "constrained.speaks_per_s": ("constrained.constrained_evaluation_pass",),
    "constrained.repair_ml_s": ("constrained.repair_must_link",),
    "constrained.repair_cl_s": ("constrained.repair_cannot_link",),
    "constrained.post_s": ("constrained.post_process",),
    "nmi.score_s": ("harness.overlapping_nmi",),
}


def span_sources(metric: str) -> tuple[str, ...]:
    return tuple("pcslpa." + b for b in _BINDINGS.get(metric, ()))


def tail(values: list[float]) -> dict | None:
    """Highest of the usual percentiles with at least ten samples beyond it
    (nearest rank), or None when there are fewer than 20 samples."""
    n = len(values)
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return {"percentile": p, "value": ordered[math.ceil(p / 100.0 * n) - 1],
                    "samples": n}
    return None


def _top_cells(units, workload):
    cells = [c for u in units for c in u.cells]
    top = max(workload.pcts)
    return ([c for c in cells if c.algo == "slpa"],
            [c for c in cells if c.algo == "pcslpa" and c.pct == top])


def _op_samples(workload, units, attr: str) -> dict[str, list[float]]:
    slpa, pc = _top_cells(units, workload)
    return {"cell.slpa": [getattr(c, attr) for c in slpa],
            "cell.pcslpa": [getattr(c, attr) for c in pc],
            "select_call": [getattr(s, attr) for u in units for s in u.selects],
            "unit": [u.wall if attr == "seconds" else u.raw_wall for u in units]}


def op_summary(workload, units) -> dict[str, dict]:
    """Sample count and median of each timed operation, at nominal speed and raw."""
    raw = _op_samples(workload, units, "raw_seconds")
    return {name: {"n": len(xs), "p50": statistics.median(xs),
                   "raw_p50": statistics.median(raw[name]), "raw_min": min(raw[name])}
            for name, xs in _op_samples(workload, units, "seconds").items() if xs}


def end_to_end(workload, setup_seconds, units, rss_mb) -> dict[str, float]:
    slpa, pc = _top_cells(units, workload)
    ops = _op_samples(workload, units, "seconds")
    samples = {
        "setup_s": (statistics.median, setup_seconds),
        "wall_s": (statistics.median, ops["unit"]),
        "cell_s.slpa.p50": (statistics.median, ops["cell.slpa"]),
        "cell_s.pcslpa.p50": (statistics.median, ops["cell.pcslpa"]),
        "select_call_s.p50": (statistics.median, ops["select_call"]),
        "nmi_mean.slpa": (statistics.fmean, [c.result.nmi for c in slpa]),
        "nmi_mean.pcslpa": (statistics.fmean, [c.result.nmi for c in pc]),
    }
    values = {name: agg(xs) for name, (agg, xs) in samples.items() if xs}
    values["peak_rss_mb"] = rss_mb
    return values


def _pass_growth(passes_by_run: dict[int, list[Span]]) -> float | None:
    ratios = []
    for passes in passes_by_run.values():
        if len(passes) >= 20:
            passes.sort(key=lambda s: s.start)
            first = statistics.fmean(s.duration for s in passes[:10])
            last = statistics.fmean(s.duration for s in passes[-10:])
            ratios.append(last / first)
    return statistics.fmean(ratios) if ratios else None


def per_layer(tracer, runner, traced_units, untraced_walls, setups) -> dict[str, float]:
    """Per-layer metrics over the traced units.

    untraced_walls[i] is the unit time, at nominal speed, of the untraced twin
    of traced_units[i] (same seeds, so the same work). Span times are raw.
    """
    n = len(traced_units)
    unit_ids = {u.index for u in traced_units}
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def parent_name(s: Span) -> str | None:
        return by_id[s.parent].name if s.parent in by_id else None

    time_by = defaultdict(float)
    calls = defaultdict(int)
    passes = {"slpa": defaultdict(list), "constrained": defaultdict(list)}
    for s in spans:
        if s.unit == -1:
            time_by["setup." + s.name] += s.duration
            continue
        if s.unit not in unit_ids:
            continue
        key = s.name
        if s.name == "post_process":
            key = "post_process." + ("slpa" if parent_name(s) == "run_slpa" else "constrained")
        time_by[key] += own[s.id]
        calls[key] += 1
        if s.name == "evaluation_pass":
            passes["slpa"][s.parent].append(s)
        elif s.name == "constrained_evaluation_pass":
            passes["constrained"][s.parent].append(s)

    v: dict[str, float] = {
        "graph.load_edges_s": time_by["setup.load_edge_list"] / setups,
        "graph.load_truth_s": time_by["setup.load_cover"] / setups,
        "harness.cell_self_s": time_by["run_cell"] / n,
        "harness.report_s": (time_by["sweep_report"] + time_by["results_csv"]) / n,
        "cli.select_self_s": time_by["cli.select_constraints"] / n,
        "constraints.select_s": time_by["select_constraints"] / n,
        "constraints.triads_s": time_by["find_forbidden_triads"] / n,
        "constraints.triad_calls": calls["find_forbidden_triads"] / n,
        "constraints.write_s": time_by["write_constraints"] / n,
        "slpa.init_s": time_by["run_slpa"] / n,
        "slpa.pass_s": time_by["evaluation_pass"] / n,
        "slpa.post_s": time_by["post_process.slpa"] / n,
        "constrained.init_s": time_by["init_constrained"] / n,
        "constrained.pass_s": time_by["constrained_evaluation_pass"] / n,
        "constrained.repair_ml_s": time_by["repair_must_link"] / n,
        "constrained.repair_cl_s": time_by["repair_cannot_link"] / n,
        "constrained.post_s": time_by["post_process.constrained"] / n,
        "nmi.score_s": time_by["overlapping_nmi"] / n,
    }
    selection = v["constraints.select_s"] + v["constraints.triads_s"]
    if selection > 0:
        v["constraints.triads_share"] = v["constraints.triads_s"] / selection
    for kind in ("slpa", "constrained"):
        growth = _pass_growth(passes[kind])
        if growth is not None:
            v[f"{kind}.pass_growth"] = growth

    g, truth = runner.loaded[runner.workload.sweep.name]
    covered = len(truth.nodes())
    cells = [c for u in traced_units for c in u.cells]
    selects = [s for u in traced_units for s in u.selects]
    stores = [c for c in cells if c.store is not None]
    v["constraints.queries"] = (sum(c.store.queries_used for c in stores)
                                + sum(s.queries for s in selects)) / n
    v["constraints.ml"] = (sum(len(c.store.ml) for c in stores) + sum(s.ml for s in selects)) / n
    v["constraints.cl"] = (sum(len(c.store.cl) for c in stores) + sum(s.cl for s in selects)) / n
    v["constraints.eligible_pairs"] = (len(stores) * (covered * (covered - 1) // 2)
                                       + sum(s.eligible_pairs for s in selects)) / n
    if v["constraints.eligible_pairs"]:
        v["constraints.query_frac"] = v["constraints.queries"] / v["constraints.eligible_pairs"]

    iterations = runner.sweep_configs(0)[0].iterations
    v["slpa.speaks"] = sum(iterations * 2 * g.m for c in cells if c.algo == "slpa") / n
    speaker_set = getattr(pcslpa.constrained, "constrained_speaker_set", None)
    if speaker_set is not None:
        v["constrained.speaks"] = sum(
            iterations * sum(len(speaker_set(g, c.store, x)) for x in range(g.n))
            for c in stores) / n
    for kind in ("slpa", "constrained"):
        if v.get(f"{kind}.speaks") and v[f"{kind}.pass_s"] > 0:
            v[f"{kind}.speaks_per_s"] = v[f"{kind}.speaks"] / v[f"{kind}.pass_s"]

    for name, field in (("ml_exchanges", "ml_exchanges"), ("ml_blocked", "ml_blocked_transfers"),
                        ("cl_deletions", "cl_deletions"), ("cl_guard", "cl_guard_exceptions")):
        v[f"constrained.{name}"] = sum(getattr(c.result, field) for c in stores) / n

    for algo, group in zip(("slpa", "pcslpa"), _top_cells(traced_units, runner.workload)):
        if group:
            stats = [cover_stats(c.cover, n_total=g.n) for c in group]
            v[f"cover.{algo}.communities"] = statistics.fmean(s.community_count for s in stats)
            v[f"cover.{algo}.overlap_frac"] = statistics.fmean(
                s.overlapping_fraction for s in stats)
            v[f"cover.{algo}.orphans"] = statistics.fmean(
                sum(1 for comm in c.cover.communities if len(comm) <= 2) for c in group)
    v["nmi.comm_pairs"] = sum(len(truth) * len(c.cover) for c in cells) / n

    v["trace.overhead_frac"] = statistics.median(
        t.wall / u - 1.0 for t, u in zip(traced_units, untraced_walls))
    v["trace.attributed_frac"] = (sum(v[name] for name in LAYER_TIMES)
                                  / statistics.fmean(u.raw_wall for u in traced_units))
    return v
