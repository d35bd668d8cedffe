"""Command line interface.

Subcommands:
  run                 one algorithm on one network, per-run CSV out
  sweep               slpa + budget sweep over one or more networks
  nmi                 score a detected cover against a reference cover
  select-constraints  query the ground-truth oracle and save the pairs
  filter-truth        preprocess a raw ground-truth community file
  gen-planted         synthetic overlapping-community fixture
  winloss             pairwise win-loss table from a sweep CSV

The experiment flags can also be given in a config file (--config): one
`key = value` per line, '#' comments, keys matching the long flag names with
'-' or '_'. Command line flags override config values. Output paths,
--no-timing, --net and --config are flags only; a key that no subcommand
reads from a config file is an error. One file may carry the keys of several
subcommands.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import random
import sys
from pathlib import Path

from .constraints import Budget, GroundTruthOracle, select_constraints, write_constraints
from .graph import IdMap, ParseError, load_cover, load_edge_list, write_cover, write_edge_list
from .harness import (
    ALGO_PCSLPA,
    ALGO_SLPA,
    UNIVERSES,
    ExperimentConfig,
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

# The keys a config file may set: those some subcommand reads through
# resolve(). Output paths, --no-timing, --net and --config are flags only.
CONFIG_KEYS = frozenset({"edges", "truth", "algo", "budget_pct", "T", "r", "runs", "seed",
                         "min_comm_size", "universe", "init_fraction", "repair_every"})


def load_config(path) -> dict[str, str]:
    """Parse `key = value` lines; keys normalized to underscore form."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise ParseError(f"expected 'key = value', got {line!r}", line_no)
                key, value = parts
            key = key.strip().lstrip("-").replace("-", "_")
            if not key:
                raise ParseError(f"empty key in {line!r}", line_no)
            out[key] = value.strip()
    return out


def _parse_pct_list(text: str) -> list[float]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty budget list")
    return [float(t) for t in tokens]


def resolve(args, config: dict[str, str], key: str, default, cast):
    """Flag value if given, else config value, else the default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config:
        return cast(config[key])
    return default


def _load_effective_config(args) -> dict[str, str]:
    path = getattr(args, "config", None)
    if not path:
        return {}
    config = load_config(path)
    unknown = sorted(config.keys() - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: no subcommand reads config key(s) {', '.join(unknown)}")
    return config


def _write_output(out, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
        logger.info("wrote %s", out)


def _add_common_experiment_flags(p) -> None:
    p.add_argument("--T", type=int, default=None,
                   help=f"label propagation passes (default {DEFAULTS.iterations})")
    p.add_argument("--r", type=float, default=None,
                   help=f"membership probability threshold (default {DEFAULTS.threshold})")
    p.add_argument("--runs", type=int, default=None,
                   help=f"independent runs per cell (default {DEFAULTS.runs})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"base seed, per-run seeds derived from it (default {DEFAULTS.seed})")
    p.add_argument("--universe", choices=UNIVERSES, default=None,
                   help=f"node universe for scoring (default {DEFAULTS.universe})")
    p.add_argument("--min-comm-size", type=int, default=None,
                   help="drop ground-truth communities below this size "
                        f"(default {DEFAULTS.min_comm_size})")
    p.add_argument("--init-fraction", type=float, default=None,
                   help="fraction of the budget spent per random seeding round "
                        f"(default {DEFAULTS.init_fraction})")
    p.add_argument("--repair-every", type=int, default=None,
                   help="repair constraints after every k-th pass and after the last; "
                        f"k >= T repairs once (default {DEFAULTS.repair_every})")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _experiment_config(args, config, edges, truth, algo, pcts, network_id="") -> ExperimentConfig:
    return ExperimentConfig(
        edges=Path(edges),
        truth=Path(truth),
        algorithm=algo,
        budget_pcts=tuple(pcts),
        iterations=resolve(args, config, "T", DEFAULTS.iterations, int),
        threshold=resolve(args, config, "r", DEFAULTS.threshold, float),
        runs=resolve(args, config, "runs", DEFAULTS.runs, int),
        seed=resolve(args, config, "seed", DEFAULTS.seed, int),
        min_comm_size=resolve(args, config, "min_comm_size", DEFAULTS.min_comm_size, int),
        universe=resolve(args, config, "universe", DEFAULTS.universe, str),
        init_fraction=resolve(args, config, "init_fraction", DEFAULTS.init_fraction, float),
        repair_every=resolve(args, config, "repair_every", DEFAULTS.repair_every, int),
        network_id=network_id,
    )


def _resolved_pcts(args, config) -> list[float]:
    return resolve(args, config, "budget_pct", [], _parse_pct_list)


def cmd_run(args) -> int:
    config = _load_effective_config(args)
    edges = resolve(args, config, "edges", None, str)
    truth = resolve(args, config, "truth", None, str)
    if edges is None or truth is None:
        raise ValueError("run needs --edges and --truth (flag or config)")
    algo = resolve(args, config, "algo", ALGO_SLPA, str)
    pcts = _resolved_pcts(args, config)
    cfg = _experiment_config(args, config, edges, truth, algo, pcts)
    results = run_experiment(cfg)
    for s in summarize(results):
        logger.info("%s %s pct=%g mean_nmi=%.4f std=%.4f over %d runs",
                    s.network, s.algo, s.pct, s.mean_nmi, s.std_nmi, s.runs)
    _write_output(args.out, results_csv(results, include_timing=not args.no_timing))
    return 0


def cmd_sweep(args) -> int:
    config = _load_effective_config(args)
    nets = args.net or []
    if not nets:
        edges = resolve(args, config, "edges", None, str)
        truth = resolve(args, config, "truth", None, str)
        if edges is None or truth is None:
            raise ValueError("sweep needs --net NAME EDGES TRUTH (or --edges/--truth)")
        nets = [[Path(edges).stem, edges, truth]]
    pcts = _resolved_pcts(args, config)
    results = []
    for name, edges, truth in nets:
        results += run_experiment(_experiment_config(
            args, config, edges, truth, ALGO_SLPA, [], network_id=name))
        if pcts:
            results += run_experiment(_experiment_config(
                args, config, edges, truth, ALGO_PCSLPA, pcts, network_id=name))
    _write_output(args.out, sweep_report(results))
    if args.raw_out:
        Path(args.raw_out).write_text(
            results_csv(results, include_timing=not args.no_timing), encoding="utf-8")
        logger.info("wrote %s", args.raw_out)
    return 0


def _cover_id_map(paths) -> IdMap:
    """Id map from every membership token in the given cover files."""
    id_map = IdMap()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                for token in line.split():
                    id_map.intern(token)
    return id_map


def cmd_nmi(args) -> int:
    config = _load_effective_config(args)
    truth_path = resolve(args, config, "truth", None, str)
    if truth_path is None:
        raise ValueError("nmi needs --truth")
    edges = resolve(args, config, "edges", None, str)
    universe_mode = resolve(args, config, "universe", DEFAULTS.universe, str)
    if universe_mode not in UNIVERSES:
        raise ValueError(f"unknown universe mode {universe_mode!r}")
    min_size = resolve(args, config, "min_comm_size", DEFAULTS.min_comm_size, int)
    if edges is not None:
        g = load_edge_list(edges)
        id_map = g.ids
    else:
        if universe_mode == "all":
            raise ValueError("--universe all needs --edges for the node universe")
        g = None
        id_map = _cover_id_map([truth_path, args.cover])
    truth = load_cover(truth_path, id_map, min_size=min_size)
    detected = load_cover(args.cover, id_map, min_size=1)
    universe = truth.nodes() if universe_mode == "covered" else set(range(g.n))
    score = overlapping_nmi(truth, detected, universe)
    print(f"{score:.6f}")
    return 0


def cmd_select_constraints(args) -> int:
    config = _load_effective_config(args)
    edges = resolve(args, config, "edges", None, str)
    truth_path = resolve(args, config, "truth", None, str)
    if edges is None or truth_path is None:
        raise ValueError("select-constraints needs --edges and --truth")
    pcts = _resolved_pcts(args, config)
    if len(pcts) != 1:
        raise ValueError("select-constraints needs exactly one --budget-pct")
    g = load_edge_list(edges)
    min_size = resolve(args, config, "min_comm_size", DEFAULTS.min_comm_size, int)
    truth = load_cover(truth_path, g.ids, min_size=min_size)
    budget = Budget.from_fraction(pcts[0], len(truth.nodes()))
    seed = resolve(args, config, "seed", DEFAULTS.seed, int)
    rng = random.Random(mix_seed(seed, "select"))
    init_fraction = resolve(args, config, "init_fraction", DEFAULTS.init_fraction, float)
    store = select_constraints(g, GroundTruthOracle(truth), budget, init_fraction, rng)
    logger.info("selected %d constraints with %d queries (budget %d)",
                len(store), store.queries_used, budget.max_queries)
    buf = io.StringIO()
    write_constraints(store, buf, g.ids)
    _write_output(args.out, buf.getvalue())
    return 0


def cmd_filter_truth(args) -> int:
    g = load_edge_list(args.edges)
    raw = load_cover(args.truth, g.ids, min_size=1, strict=args.strict)
    filtered = filter_truth_cover(
        g, raw,
        keep_largest=args.keep_largest,
        drop_density_quartile=not args.keep_sparse,
        min_size=args.min_comm_size,
    )
    stats = cover_stats(filtered, n_total=g.n)
    logger.info("kept %d of %d communities; sizes %d..%d; %d overlapping nodes (%.1f%%)",
                len(filtered), len(raw), stats.min_size, stats.max_size,
                stats.overlapping_nodes, 100 * stats.overlapping_fraction)
    buf = io.StringIO()
    write_cover(filtered, buf, g.ids)
    _write_output(args.out, buf.getvalue())
    return 0


def cmd_gen_planted(args) -> int:
    g, truth = gen_planted_overlap(args.comms, args.size, args.overlap,
                                   args.p_in, args.p_out, args.seed)
    buf = io.StringIO()
    write_edge_list(g, buf)
    _write_output(args.out, buf.getvalue())
    buf = io.StringIO()
    write_cover(truth, buf, g.ids)
    _write_output(args.truth_out, buf.getvalue())
    return 0


def cmd_winloss(args) -> int:
    with open(args.sweep_csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or len(rows[0]) < 3:
        raise ParseError(f"{args.sweep_csv}: need >= 1 network row and >= 2 algorithm columns")
    header = rows[0]
    scores: dict[str, list[float]] = {name: [] for name in header[1:]}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"{args.sweep_csv}: row width mismatch", line_no)
        for name, cell in zip(header[1:], row[1:]):
            if not cell:
                raise ParseError(f"{args.sweep_csv}: empty score for {name} on {row[0]}", line_no)
            scores[name].append(float(cell))
    table = win_loss_table(scores)
    sys.stdout.write(table.to_text())
    if args.out:
        Path(args.out).write_text(table.to_csv(), encoding="utf-8")
        logger.info("wrote %s", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcslpa",
        description="Overlapping community detection by label propagation, "
                    "with optional pairwise constraints from a ground-truth oracle.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one algorithm on one network")
    p.add_argument("--edges", default=None, help="edge list file, 'u v' per line")
    p.add_argument("--truth", default=None, help="ground-truth cover, one community per line")
    p.add_argument("--algo", choices=(ALGO_SLPA, ALGO_PCSLPA), default=None,
                   help="algorithm (default slpa)")
    p.add_argument("--budget-pct", action="append", type=float, default=None,
                   help="constraint budget as a fraction of all node pairs; repeatable")
    p.add_argument("--no-timing", action="store_true",
                   help="omit the ms column for byte-stable output")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="slpa vs pcslpa over budgets and networks")
    p.add_argument("--net", action="append", nargs=3, metavar=("NAME", "EDGES", "TRUTH"),
                   default=None, help="named network; repeatable")
    p.add_argument("--edges", default=None, help="single-network edge list")
    p.add_argument("--truth", default=None, help="single-network ground truth")
    p.add_argument("--budget-pct", action="append", type=float, default=None,
                   help="budget fraction; repeatable")
    p.add_argument("--raw-out", default=None, help="also write per-run results here")
    p.add_argument("--no-timing", action="store_true",
                   help="omit the ms column from --raw-out")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("nmi", help="overlap-aware NMI of a cover against a reference")
    p.add_argument("cover", help="detected cover file")
    p.add_argument("--truth", default=None, help="reference cover file")
    p.add_argument("--edges", default=None,
                   help="edge list; required for --universe all, otherwise optional")
    p.add_argument("--universe", choices=UNIVERSES, default=None,
                   help=f"scoring universe (default {DEFAULTS.universe}: "
                        "reference cover's nodes)")
    p.add_argument("--min-comm-size", type=int, default=None,
                   help="drop reference communities below this size "
                        f"(default {DEFAULTS.min_comm_size})")
    p.add_argument("--config", default=None, help="key = value config file")
    p.set_defaults(func=cmd_nmi)

    p = sub.add_parser("select-constraints", help="query the oracle, save the constraint file")
    p.add_argument("--edges", default=None, help="edge list file, 'u v' per line")
    p.add_argument("--truth", default=None,
                   help="ground-truth cover that answers the queries, one community per line")
    p.add_argument("--budget-pct", action="append", type=float, default=None,
                   help="query budget as a fraction of all node pairs; give exactly one")
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed of the query order (default {DEFAULTS.seed})")
    p.add_argument("--init-fraction", type=float, default=None,
                   help="fraction of the budget spent per random seeding round "
                        f"(default {DEFAULTS.init_fraction})")
    p.add_argument("--min-comm-size", type=int, default=None,
                   help="drop ground-truth communities below this size "
                        f"(default {DEFAULTS.min_comm_size})")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--out", default=None,
                   help="constraint file, 'u v ML|CL' per line (default stdout)")
    p.set_defaults(func=cmd_select_constraints)

    p = sub.add_parser("filter-truth", help="clean a raw ground-truth community file")
    p.add_argument("--edges", required=True, help="edge list file, 'u v' per line")
    p.add_argument("--truth", required=True, help="raw ground-truth cover, one community per line")
    p.add_argument("--keep-largest", type=int, default=5000,
                   help="keep at most this many largest communities (default 5000)")
    p.add_argument("--min-comm-size", type=int, default=5,
                   help="drop communities below this size after filtering (default 5)")
    p.add_argument("--keep-sparse", action="store_true",
                   help="skip dropping the lowest internal-density quartile")
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
