"""Command line interface.

Subcommands:
  run                 slpa, or pcslpa at each --budget-pct, on one network;
                      per-run CSV out
  sweep               slpa + budget sweep over networks named by --net
  nmi                 score a detected cover against a reference cover
  select-constraints  query the ground-truth oracle and save the pairs
  filter-truth        preprocess a raw ground-truth community file
  gen-planted         synthetic overlapping-community fixture
  winloss             pairwise win-loss table from a sweep CSV

Every score is taken over the nodes of the ground truth (the reference
cover), and budgets count the pairs of those nodes. `filter-truth` is the one
place that drops small ground-truth communities.

Any argument `@FILE` is replaced by the arguments written in FILE
(argparse's argument files): whitespace-separated, '#' starts a comment that
runs to the end of the line. A flag read from a file behaves exactly as on the
command line, and a later flag overrides an earlier one, so
`pcslpa run @exp.args --runs 3` takes everything from exp.args but the runs.
The repeatable flags, `--net` and the `--budget-pct` of run and sweep,
accumulate instead.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import random
import sys
from pathlib import Path

from .constraints import GroundTruthOracle, budget_queries, select_constraints, write_constraints
from .graph import (IdMap, ParseError, _iter_lines, _open_sink, _records, load_cover,
                    load_edge_list, write_cover, write_edge_list)
from .harness import (
    ALGO_PCSLPA,
    ALGO_SLPA,
    ExperimentConfig,
    covering_truth,
    load_experiment_inputs,
    mix_seed,
    results_csv,
    run_experiment,
    summarize,
    sweep_report,
    win_loss_table,
)
from .harness import filter_truth as filter_truth_cover
from .nmi import cover_stats, overlapping_nmi
from .planted import gen_planted_overlap

logger = logging.getLogger(__name__)

# The defaults of every experiment flag: a dataclass keeps each field's
# default value as a class attribute.
DEFAULTS = ExperimentConfig


class _ArgumentParser(argparse.ArgumentParser):
    """Splits each line of an argument file on whitespace; '#' starts a comment."""

    def convert_arg_line_to_args(self, arg_line):
        return arg_line.split("#", 1)[0].split()


def _write_output(out, text: str) -> None:
    with _open_sink(out or sys.stdout) as f:
        f.write(text)


def _add_common_experiment_flags(p) -> None:
    p.add_argument("--budget-pct", action="append", type=float, default=[],
                   help="constraint budget as a fraction of the pairs of the ground "
                        "truth's nodes; repeatable. pcslpa runs at each budget; run "
                        "runs slpa instead when none is given, sweep runs slpa too")
    p.add_argument("--T", type=int, default=DEFAULTS.iterations,
                   help="label propagation passes (default %(default)s)")
    p.add_argument("--r", type=float, default=DEFAULTS.threshold,
                   help="membership probability threshold (default %(default)s)")
    p.add_argument("--runs", type=int, default=DEFAULTS.runs,
                   help="independent runs per cell (default %(default)s)")
    p.add_argument("--seed", type=int, default=DEFAULTS.seed,
                   help="base seed, per-run seeds derived from it (default %(default)s)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _experiment_config(args, edges, truth, algo, pcts, network_id="") -> ExperimentConfig:
    return ExperimentConfig(
        edges=Path(edges),
        truth=Path(truth),
        algorithm=algo,
        budget_pcts=tuple(pcts),
        iterations=args.T,
        threshold=args.r,
        runs=args.runs,
        seed=args.seed,
        network_id=network_id,
    )


def cmd_run(args) -> int:
    algo = ALGO_PCSLPA if args.budget_pct else ALGO_SLPA
    results = run_experiment(_experiment_config(
        args, args.edges, args.truth, algo, args.budget_pct))
    for s in summarize(results):
        logger.info("%s %s pct=%g mean_nmi=%.4f std=%.4f over %d runs",
                    s.network, s.algo, s.pct, s.mean_nmi, s.std_nmi, s.runs)
    _write_output(args.out, results_csv(results, include_timing=not args.no_timing))
    return 0


def cmd_sweep(args) -> int:
    names = [name for name, _, _ in args.net]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"each --net needs its own NAME; repeated: {', '.join(repeated)}")
    # every config is built, so checked, before any network is loaded
    algos = [(ALGO_SLPA, [])]
    if args.budget_pct:
        algos.append((ALGO_PCSLPA, args.budget_pct))
    configs = [[_experiment_config(args, edges, truth, algo, pcts, network_id=name)
                for algo, pcts in algos] for name, edges, truth in args.net]
    results = []
    for net_configs in configs:
        inputs = load_experiment_inputs(net_configs[0])
        for cfg in net_configs:
            results += run_experiment(cfg, inputs)
    _write_output(args.out, sweep_report(results))
    if args.raw_out:
        _write_output(args.raw_out, results_csv(results, include_timing=not args.no_timing))
    return 0


def _cover_id_map(paths) -> IdMap:
    """Id map from every membership token in the given cover files."""
    index: dict[str, int] = {}
    for path in paths:
        for _, _, tokens in _records(path):
            for token in tokens:
                index.setdefault(token, len(index))
    return IdMap(index)


def cmd_nmi(args) -> int:
    # with --edges, a token that names no graph node is an error
    id_map = (load_edge_list(args.edges).ids if args.edges is not None
              else _cover_id_map([args.truth, args.cover]))
    truth = covering_truth(load_cover(args.truth, id_map), args.truth)
    detected = load_cover(args.cover, id_map)
    if not detected.communities:
        raise ValueError(f"detected cover {args.cover} holds no community")
    print(f"{overlapping_nmi(truth, detected, truth.nodes()):.6f}")
    return 0


def cmd_select_constraints(args) -> int:
    g = load_edge_list(args.edges)
    truth = covering_truth(load_cover(args.truth, g.ids), args.truth)
    max_queries = budget_queries(args.budget_pct, len(truth.nodes()))
    rng = random.Random(mix_seed(args.seed, "select"))
    store = select_constraints(g, GroundTruthOracle(truth), max_queries, rng)
    logger.info("selected %d constraints (budget %d)", store.queries_used, max_queries)
    write_constraints(store, args.out or sys.stdout, g.ids)
    return 0


def cmd_filter_truth(args) -> int:
    g = load_edge_list(args.edges)
    raw = covering_truth(load_cover(args.truth, g.ids, strict=args.strict), args.truth)
    filtered = covering_truth(
        filter_truth_cover(g, raw, keep_largest=args.keep_largest, min_size=args.min_size),
        f"{args.truth} after filtering")
    stats = cover_stats(filtered, n_total=g.n)
    logger.info("kept %d of %d communities; sizes %d..%d; %d overlapping nodes (%.1f%%)",
                len(filtered), len(raw), stats.min_size, stats.max_size,
                stats.overlapping_nodes, 100 * stats.overlapping_fraction)
    write_cover(filtered, args.out or sys.stdout, g.ids)
    return 0


def cmd_gen_planted(args) -> int:
    g, truth = gen_planted_overlap(args.comms, args.size, args.overlap,
                                   args.p_in, args.p_out, args.seed)
    write_edge_list(g, args.out)
    write_cover(truth, args.truth_out, g.ids)
    return 0


def cmd_winloss(args) -> int:
    reader = csv.reader(_iter_lines(args.sweep_csv))
    rows = [(reader.line_num, row) for row in reader]
    if len(rows) < 2 or len(rows[0][1]) < 3:
        raise ParseError("need >= 1 network row and >= 2 algorithm columns",
                         source=args.sweep_csv)
    header = rows[0][1]
    scores: dict[str, list[float]] = {}
    for name in header[1:]:
        if name in scores:
            raise ParseError(f"algorithm column {name!r} repeats", source=args.sweep_csv)
        scores[name] = []
    for line_no, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError("row width mismatch", line_no, args.sweep_csv)
        for name, cell in zip(header[1:], row[1:]):
            try:
                score = float(cell)
            except ValueError:
                score = math.nan
            if math.isnan(score):
                raise ParseError(f"score {cell!r} for {name} on {row[0]} is not a number",
                                 line_no, args.sweep_csv)
            scores[name].append(score)
    table = win_loss_table(scores)
    sys.stdout.write(table.to_text())
    if args.out:
        _write_output(args.out, table.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pcslpa",
        description="Overlapping community detection by label propagation, "
                    "with optional pairwise constraints from a ground-truth oracle. "
                    "An argument @FILE is replaced by the whitespace-separated "
                    "arguments in FILE ('#' starts a comment); a later flag "
                    "overrides the file's value.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="slpa, or pcslpa at each budget, on one network")
    p.add_argument("--edges", required=True, help="edge list file, 'u v' per line")
    p.add_argument("--truth", required=True,
                   help="ground-truth cover, one community per line")
    p.add_argument("--no-timing", action="store_true",
                   help="omit the ms column for byte-stable output")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="slpa vs pcslpa over budgets and networks")
    p.add_argument("--net", action="append", nargs=3, metavar=("NAME", "EDGES", "TRUTH"),
                   required=True, help="network named NAME in the report; repeatable, "
                                       "one NAME per network")
    p.add_argument("--raw-out", default=None, help="also write per-run results here")
    p.add_argument("--no-timing", action="store_true",
                   help="omit the ms column from --raw-out")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("nmi", help="overlap-aware NMI of a cover against a reference")
    p.add_argument("cover", help="detected cover file")
    p.add_argument("--truth", required=True, help="reference cover file")
    p.add_argument("--edges", default=None,
                   help="edge list; if given, every cover token must name one of its nodes")
    p.set_defaults(func=cmd_nmi)

    p = sub.add_parser("select-constraints", help="query the oracle, save the constraint file")
    p.add_argument("--edges", required=True, help="edge list file, 'u v' per line")
    p.add_argument("--truth", required=True,
                   help="ground-truth cover that answers the queries, one community per line")
    p.add_argument("--budget-pct", type=float, required=True,
                   help="query budget as a fraction of the pairs of the ground truth's nodes")
    p.add_argument("--seed", type=int, default=DEFAULTS.seed,
                   help="seed of the query order (default %(default)s)")
    p.add_argument("--out", default=None,
                   help="constraint file, 'u v ML|CL' per line (default stdout)")
    p.set_defaults(func=cmd_select_constraints)

    p = sub.add_parser("filter-truth", help="clean a raw ground-truth community file")
    p.add_argument("--edges", required=True, help="edge list file, 'u v' per line")
    p.add_argument("--truth", required=True, help="raw ground-truth cover, one community per line")
    p.add_argument("--keep-largest", type=int, default=5000,
                   help="keep at most this many largest communities (default 5000)")
    p.add_argument("--min-comm-size", dest="min_size", type=int, default=5,
                   help="drop communities below this size after filtering (default 5)")
    p.add_argument("--strict", action="store_true",
                   help="fail on membership tokens missing from the edge list")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_filter_truth)

    p = sub.add_parser("gen-planted", help="chain-of-communities synthetic network")
    p.add_argument("--comms", type=int, default=2, help="number of communities (default 2)")
    p.add_argument("--size", type=int, default=10, help="nodes per community (default 10)")
    p.add_argument("--overlap", type=int, default=3,
                   help="shared nodes between adjacent communities (default 3)")
    p.add_argument("--p-in", type=float, default=1.0, help="intra-community edge probability")
    p.add_argument("--p-out", type=float, default=0.0, help="background edge probability")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--out", required=True, help="edge list output path")
    p.add_argument("--truth-out", required=True, help="ground-truth cover output path")
    p.set_defaults(func=cmd_gen_planted)

    p = sub.add_parser("winloss", help="pairwise wins from a sweep CSV")
    p.add_argument("sweep_csv", help="matrix CSV: network rows, algorithm columns")
    p.add_argument("--out", default=None, help="write the table as CSV here too")
    p.set_defaults(func=cmd_winloss)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except (ParseError, ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
