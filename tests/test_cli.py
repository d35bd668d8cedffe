"""Command-line interface tests, driven through main(argv)."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from pcslpa import cli, harness
from pcslpa.cli import build_parser, main
from pcslpa.constraints import load_constraints
from pcslpa.graph import Cover, ParseError, load_cover, load_edge_list


@pytest.fixture()
def planted(tmp_path):
    edges = tmp_path / "toy.txt"
    truth = tmp_path / "toy_truth.txt"
    rc = main(["gen-planted", "--comms", "2", "--size", "10", "--overlap", "3",
               "--p-in", "1.0", "--p-out", "0.0", "--seed", "0",
               "--out", str(edges), "--truth-out", str(truth)])
    assert rc == 0
    return edges, truth


def test_gen_planted_writes_both_files(planted):
    edges, truth = planted
    assert len(edges.read_text().splitlines()) == 87
    comms = truth.read_text().splitlines()
    assert len(comms) == 2
    assert len(comms[0].split()) == 10


def test_run_subcommand_writes_results_csv(planted, tmp_path):
    edges, truth = planted
    out = tmp_path / "results.csv"
    rc = main(["run", "--edges", str(edges), "--truth", str(truth),
               "--T", "15", "--runs", "3", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("network,algo,pct,seed,nmi,ms")
    assert len(lines) == 4
    assert all(line.startswith("toy,slpa,0,") for line in lines[1:])


def test_run_constrained_needs_budget(planted, tmp_path):
    edges, truth = planted
    run = ["run", "--edges", str(edges), "--truth", str(truth), "--T", "10", "--runs", "2"]
    unbudgeted, budgeted = tmp_path / "slpa.csv", tmp_path / "pcslpa.csv"
    assert main(run + ["--out", str(unbudgeted)]) == 0
    assert main(run + ["--budget-pct", "0.05", "--out", str(budgeted)]) == 0
    assert [line.split(",")[1] for line in unbudgeted.read_text().splitlines()[1:]] == ["slpa"] * 2
    assert [line.split(",")[1] for line in budgeted.read_text().splitlines()[1:]] == ["pcslpa"] * 2


@pytest.mark.parametrize("content, message", [
    (b"0 1 2\n", "line 1: expected 2 node tokens, got 3: '0 1 2'"),
    (b"\xff 1\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"# no edge\n", "empty edge list: no edges found"),
], ids=["three-tokens", "not-utf8", "empty"])
def test_run_names_the_edge_file_it_cannot_read(planted, tmp_path, capsys, content, message):
    _, truth = planted
    edges = tmp_path / "bad_edges.txt"
    edges.write_bytes(content)
    assert main(["run", "--edges", str(edges), "--truth", str(truth), "--T", "5"]) == 2
    assert capsys.readouterr().err == f"error: {edges}: {message}\n"


def test_nmi_names_the_cover_file_it_cannot_decode(planted, tmp_path, capsys):
    # without --edges the token scan reads the files first
    _, truth = planted
    cover = tmp_path / "cover.txt"
    cover.write_bytes(b"0 1\n\xff\n")
    assert main(["nmi", str(cover), "--truth", str(truth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {cover}: 'utf-8' codec can't decode byte 0xff in "
                            "position 4: invalid start byte\n")


def test_run_missing_inputs_is_an_error(tmp_path):
    rc = main(["run", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_nmi_identical_covers_prints_one(planted, capsys):
    edges, truth = planted
    rc = main(["nmi", str(truth), "--truth", str(truth), "--edges", str(edges)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1.000000"


def test_nmi_requires_reference(planted):
    edges, truth = planted
    assert main(["nmi", str(truth)]) == 2


def test_nmi_merged_cover_scores_half(planted, tmp_path, capsys):
    edges, truth = planted
    merged = tmp_path / "merged.txt"
    merged.write_text(" ".join(str(v) for v in range(17)) + "\n")
    rc = main(["nmi", str(merged), "--truth", str(truth), "--edges", str(edges)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.500000"


def test_nmi_with_edges_rejects_a_token_that_names_no_node(planted, tmp_path, capsys):
    edges, truth = planted
    cover = tmp_path / "cover.txt"
    cover.write_text("0 1 99\n")
    assert main(["nmi", str(cover), "--truth", str(truth), "--edges", str(edges)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cover}: line 1: unknown node token '99'\n"
    # without --edges the tokens of both covers are the node ids
    assert main(["nmi", str(cover), "--truth", str(truth)]) == 0


@pytest.mark.parametrize("in_file", [False, True])
def test_an_invalid_choice_is_an_error_in_an_argument_file_too(planted, tmp_path, capsys,
                                                                in_file):
    edges, truth = planted
    args = tmp_path / "run.args"
    args.write_text("--T ten\n")
    argv = ["run", "--edges", str(edges), "--truth", str(truth),
            *([f"@{args}"] if in_file else ["--T", "ten"]), "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --T: invalid int value: 'ten'" in captured.err
    assert not (tmp_path / "r.csv").exists()


def test_select_constraints_round_trips(planted, tmp_path):
    edges, truth = planted
    out = tmp_path / "pairs.txt"
    rc = main(["select-constraints", "--edges", str(edges), "--truth", str(truth),
               "--budget-pct", "0.05", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    # floor(0.05 * 17*16/2) = 6 queries
    assert len(lines) == 6
    assert all(l.split()[2] in ("ML", "CL") for l in lines)


def test_select_constraints_takes_the_later_budget(planted, tmp_path):
    edges, truth = planted
    args = tmp_path / "sel.args"
    args.write_text("--budget-pct 0.05\n", encoding="utf-8")
    base = ["select-constraints", "--edges", str(edges), "--truth", str(truth)]
    outs = {}
    for name, budgets in (("alone", ["--budget-pct", "0.2"]),
                          ("file", [f"@{args}", "--budget-pct", "0.2"]),
                          ("flags", ["--budget-pct", "0.05", "--budget-pct", "0.2"])):
        outs[name] = tmp_path / f"{name}.txt"
        assert main(base + budgets + ["--out", str(outs[name])]) == 0
    assert outs["file"].read_bytes() == outs["alone"].read_bytes()
    assert outs["flags"].read_bytes() == outs["alone"].read_bytes()


def test_sweep_is_byte_stable(planted, tmp_path):
    edges, truth = planted
    args = ["sweep", "--net", "toy", str(edges), str(truth),
            "--budget-pct", "0.05", "--T", "10", "--runs", "2", "--seed", "9"]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "network,slpa,pcslpa@0.05"


def test_sweep_loads_each_network_once(planted, tmp_path, monkeypatch):
    edges, truth = planted
    loaded = []
    load = harness.load_edge_list
    monkeypatch.setattr(harness, "load_edge_list", lambda path: loaded.append(path) or load(path))
    rc = main(["sweep", "--net", "a", str(edges), str(truth), "--net", "b", str(edges), str(truth),
               "--budget-pct", "0.05", "--budget-pct", "0.1", "--T", "5", "--runs", "2",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert list(map(str, loaded)) == [str(edges), str(edges)]
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "network,slpa,pcslpa@0.05,pcslpa@0.1"


def test_sweep_rejects_a_repeated_network_name_before_any_load(planted, tmp_path, monkeypatch,
                                                               capsys):
    edges, truth = planted
    loaded = []
    load = harness.load_edge_list
    monkeypatch.setattr(harness, "load_edge_list", lambda path: loaded.append(path) or load(path))
    rc = main(["sweep", "--net", "a", str(edges), str(truth), "--net", "b", str(edges), str(truth),
               "--net", "a", str(edges), str(truth), "--T", "5", "--runs", "2",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert loaded == []
    assert capsys.readouterr().err == "error: each --net needs its own NAME; repeated: a\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command, bad", [
    ("sweep", ["--runs", "0"]),
    ("sweep", ["--budget-pct", "0.05", "--budget-pct", "1.5"]),
    ("sweep", ["--budget-pct", "0.05", "--budget-pct", "0.05"]),
    ("sweep", ["--T", "0"]),
    ("run", ["--budget-pct", "-0.05"]),
    ("run", ["--r", "-0.1"]),
    ("run", ["--budget-pct", "0.05", "--budget-pct", "0.05"]),
    ("run", ["--r", "2"]),
])
def test_a_bad_experiment_setting_fails_before_any_cell_runs(planted, tmp_path, monkeypatch,
                                                             capsys, command, bad):
    edges, truth = planted
    cells = []
    monkeypatch.setattr(harness, "run_cell", lambda *args: cells.append(args))
    network = (["--edges", str(edges), "--truth", str(truth)] if command == "run"
               else ["--net", "toy", str(edges), str(truth)])
    rc = main([command, *network, "--runs", "2", *bad, "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert cells == []
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "r.csv").exists()


def _empty_truth(tmp_path):
    truth = tmp_path / "empty_truth.txt"
    truth.write_text("# every community filtered out\n")
    return truth


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_truth_that_covers_no_node_fails_before_any_cell_runs(planted, tmp_path, monkeypatch,
                                                                capsys, command):
    edges, _ = planted
    truth = _empty_truth(tmp_path)
    cells = []
    monkeypatch.setattr(harness, "run_cell", lambda *args: cells.append(args))
    network = (["--edges", str(edges), "--truth", str(truth)] if command == "run"
               else ["--net", "toy", str(edges), str(truth)])
    rc = main([command, *network, "--budget-pct", "0.05", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert cells == []
    assert capsys.readouterr().err == f"error: ground truth {truth} covers no node\n"
    assert not (tmp_path / "r.csv").exists()


def test_select_constraints_rejects_a_truth_that_covers_no_node(planted, tmp_path,
                                                                monkeypatch, capsys):
    edges, _ = planted
    truth = _empty_truth(tmp_path)
    selections = []
    monkeypatch.setattr(cli, "select_constraints", lambda *args: selections.append(args))
    out = tmp_path / "pairs.txt"
    assert main(["select-constraints", "--edges", str(edges), "--truth", str(truth),
                 "--budget-pct", "0.05", "--out", str(out)]) == 2
    assert selections == []
    assert capsys.readouterr().err == f"error: ground truth {truth} covers no node\n"
    assert not out.exists()


def test_nmi_rejects_a_reference_that_covers_no_node(planted, tmp_path, capsys):
    _, cover = planted
    truth = _empty_truth(tmp_path)
    assert main(["nmi", str(cover), "--truth", str(truth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ground truth {truth} covers no node\n"


@pytest.mark.parametrize("with_edges", [False, True], ids=["cover-ids", "graph-ids"])
def test_nmi_rejects_an_empty_detected_cover_by_its_path(planted, tmp_path, capsys, with_edges):
    edges, truth = planted
    empty = tmp_path / "empty_cover.txt"
    empty.write_text("")
    argv = ["nmi", str(empty), "--truth", str(truth)] + (["--edges", str(edges)] if with_edges else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: detected cover {empty} holds no community\n"


@pytest.mark.parametrize("raw_empty", [True, False], ids=["empty-raw", "all-filtered"])
def test_filter_truth_rejects_a_truth_left_with_no_community(planted, tmp_path, capsys,
                                                             raw_empty):
    edges, truth = planted
    argv = ["filter-truth", "--edges", str(edges)]
    if raw_empty:
        truth = _empty_truth(tmp_path)
        want = f"error: ground truth {truth} covers no node\n"
    else:
        # both planted communities hold 10 nodes
        argv += ["--min-comm-size", "100"]
        want = f"error: ground truth {truth} after filtering covers no node\n"
    out = tmp_path / "filtered.txt"
    assert main(argv + ["--truth", str(truth), "--out", str(out)]) == 2
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_winloss_reads_sweep_matrix(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("network,alg1,alg2\nnet1,0.9,0.7\nnet2,0.8,0.85\nnet3,0.5,0.5\n")
    out = tmp_path / "table.csv"
    rc = main(["winloss", str(sweep), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "1/3" in text
    assert out.read_text().startswith("algorithm,")


def test_winloss_reads_a_sweep_with_a_comma_in_a_network_name(planted, tmp_path, capsys):
    edges, truth = planted
    report = tmp_path / "sweep.csv"
    assert main(["sweep", "--net", "x", str(edges), str(truth), "--net", "a,b", str(edges), str(truth),
                 "--budget-pct", "0.05", "--T", "10", "--runs", "2", "--out", str(report)]) == 0
    assert report.read_text().splitlines()[1].startswith('"a,b",')
    capsys.readouterr()
    assert main(["winloss", str(report)]) == 0
    assert "total wins" in capsys.readouterr().out


@pytest.mark.parametrize("cell", ["abc", "nan", ""], ids=["text", "nan", "empty"])
def test_winloss_rejects_a_score_that_is_not_a_number(tmp_path, capsys, cell):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text(f"network,alg1,alg2\nnet1,0.9,0.7\nnet2,0.5,{cell}\n")
    assert main(["winloss", str(sweep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {sweep}: line 3: score {cell!r} for alg2 on net2 "
                            "is not a number\n")


def test_winloss_rejects_ragged_matrix(tmp_path, capsys):
    sweep = tmp_path / "bad.csv"
    sweep.write_text("network,alg1,alg2\nnet1,0.9\n")
    assert main(["winloss", str(sweep)]) == 2
    assert capsys.readouterr().err == f"error: {sweep}: line 2: row width mismatch\n"


def test_winloss_numbers_a_row_by_its_file_line(tmp_path, capsys):
    # the quoted network name spans lines 2 and 3, so the short row is line 4
    sweep = tmp_path / "bad.csv"
    sweep.write_text('network,a,b\n"n\n1",0.5,0.6\nn2,0.5\n')
    assert main(["winloss", str(sweep)]) == 2
    assert capsys.readouterr().err == f"error: {sweep}: line 4: row width mismatch\n"


def test_winloss_names_the_file_it_cannot_decode(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    sweep.write_bytes(b"network,a,b\nn1,0.5,\xff\n")
    assert main(["winloss", str(sweep)]) == 2
    assert capsys.readouterr().err == (f"error: {sweep}: 'utf-8' codec can't decode byte 0xff "
                                       "in position 19: invalid start byte\n")


def test_winloss_drops_a_byte_order_mark(tmp_path, capsys):
    # a mark before a quoted first cell would keep its comma from being quoted
    sweep = tmp_path / "sweep.csv"
    sweep.write_bytes('\ufeff"network, id",a,b\nn1,0.9,0.1\n'.encode())
    assert main(["winloss", str(sweep)]) == 0
    assert capsys.readouterr().out == harness.win_loss_table({"a": [0.9], "b": [0.1]}).to_text()


@pytest.mark.parametrize("header", ["network,a,b,a", "network,a,a"])
def test_winloss_rejects_a_repeated_algorithm_column(tmp_path, capsys, header):
    sweep = tmp_path / "sweep.csv"
    width = header.count(",")
    sweep.write_text(f"{header}\nnet1{',0.5' * width}\nnet2{',0.7' * width}\n")
    assert main(["winloss", str(sweep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {sweep}: algorithm column 'a' repeats\n"


def test_filter_truth_subcommand(tmp_path):
    edges = tmp_path / "e.txt"
    edges.write_text("0 1\n1 2\n0 2\n3 4\n")
    truth = tmp_path / "t.txt"
    truth.write_text("0 1 2\n3 4\n")
    out = tmp_path / "f.txt"
    rc = main(["filter-truth", "--edges", str(edges), "--truth", str(truth),
               "--min-comm-size", "3", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines() == ["0 1 2"]


def test_filter_truth_warns_once_for_all_unknown_tokens(tmp_path, caplog):
    edges = tmp_path / "e.txt"
    edges.write_text("0 1\n1 2\n0 2\n")
    truth = tmp_path / "t.txt"
    truth.write_text("0 1 2\n0 x9 1 x7\n\nx9 x8\n")
    out = tmp_path / "f.txt"
    with caplog.at_level("WARNING", logger="pcslpa"):
        assert main(["filter-truth", "--edges", str(edges), "--truth", str(truth),
                     "--min-comm-size", "2", "--out", str(out)]) == 0
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        f"{truth}: skipped 4 unknown node token(s), the first 'x9' on line 2"]
    assert out.read_text().splitlines() == ["0 1 2", "0 1"]


@pytest.mark.parametrize("flag", ["--keep-largest=0", "--keep-largest=-1", "--min-comm-size=0"])
def test_filter_truth_rejects_a_bound_below_one(tmp_path, capsys, flag):
    edges = tmp_path / "e.txt"
    edges.write_text("0 1\n1 2\n0 2\n3 4\n")
    truth = tmp_path / "t.txt"
    truth.write_text("0 1 2\n3 4\n")
    out = tmp_path / "f.txt"
    rc = main(["filter-truth", "--edges", str(edges), "--truth", str(truth), flag,
               "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_supplies_defaults_and_flags_override(planted, tmp_path):
    edges, truth = planted
    args = tmp_path / "exp.args"
    args.write_text("# experiment defaults\n\n--T 10   # passes\n--runs 2\n--seed 4\n")
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    inputs = ["--edges", str(edges), "--truth", str(truth), "--no-timing"]
    assert main(["run", *inputs, f"@{args}", "--runs", "3", "--out", str(from_file)]) == 0
    assert main(["run", *inputs, "--T", "10", "--runs", "3", "--seed", "4",
                 "--out", str(from_flags)]) == 0
    # the file's runs=2 is overridden by the later flag; T=10 and seed=4 apply
    assert len(from_file.read_text().splitlines()) == 4
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_argument_file_output_flags_take_effect(planted, tmp_path):
    edges, truth = planted
    out = tmp_path / "r.csv"
    args = tmp_path / "exp.args"
    args.write_text(f"--T 10 --runs 2\n--out {out}\n--no-timing\n")
    assert main(["run", "--edges", str(edges), "--truth", str(truth), f"@{args}"]) == 0
    assert out.read_text().splitlines()[0].startswith("network,algo,pct,seed,nmi,ml_exchanges,")


# a typo, retired options, two flags of sweep and one of the top level
@pytest.mark.parametrize("key", ["repair_evry", "repair_every", "algo", "config", "raw_out",
                                 "net", "verbose"])
def test_config_key_that_no_flag_reads_is_an_error(planted, tmp_path, capsys, key):
    edges, truth = planted
    flag = "--" + key.replace("_", "-")
    args = tmp_path / "exp.args"
    args.write_text(f"--T 10\n{flag} x\n")
    rc = main(["run", "--edges", str(edges), "--truth", str(truth),
               f"@{args}", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_malformed_config_via_cli_returns_error(planted, tmp_path):
    edges, truth = planted
    bad = tmp_path / "bad.args"
    bad.write_text("oops\n")
    for args in (bad, tmp_path / "missing.args"):
        rc = main(["run", "--edges", str(edges), "--truth", str(truth),
                   f"@{args}", "--out", str(tmp_path / "r.csv")])
        assert rc == 2
    assert not (tmp_path / "r.csv").exists()


def test_gen_planted_rejects_bad_parameters(tmp_path):
    rc = main(["gen-planted", "--comms", "2", "--size", "5", "--overlap", "5",
               "--out", str(tmp_path / "e.txt"), "--truth-out", str(tmp_path / "t.txt")])
    assert rc == 2


def _subcommands(parser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_option_of_every_subcommand_has_help():
    parser = build_parser()
    subcommands = _subcommands(parser)
    missing = []
    for name, sub in [("pcslpa", parser)] + sorted(subcommands.items()):
        for action in sub._actions:
            if isinstance(action, argparse._SubParsersAction):
                continue
            if not (action.help or "").strip():
                missing.append(f"{name} {'/'.join(action.option_strings) or action.dest}")
    assert len(subcommands) == 7
    assert missing == []


def test_readme_names_exactly_the_flags_that_run_and_sweep_share():
    subcommands = _subcommands(build_parser())
    run, sweep = ({o for a in subcommands[name]._actions for o in a.option_strings}
                  for name in ("run", "sweep"))
    shared = (run & sweep) - {"-h", "--help"}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Flags shared by experiment commands", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(--[\w-]+)", paragraph)) == shared


def test_readme_names_every_long_option():
    parser = build_parser()
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    missing = []
    for name, sub in [("pcslpa", parser)] + sorted(_subcommands(parser).items()):
        for option in (o for a in sub._actions for o in a.option_strings):
            if (option.startswith("--") and option != "--help"
                    and not re.search(re.escape(option) + r"(?![\w-])", readme)):
                missing.append(f"{name} {option}")
    assert missing == []


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_every_reader_takes_any_line_end(tmp_path, capsys, end):
    def lines(name, *rows):
        path = tmp_path / name
        path.write_bytes("".join(row + end for row in rows).encode())
        return path

    g = load_edge_list(lines("edges.txt", "# triangle", "0 1", "1 2", "2 0"))
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert load_cover(lines("truth.txt", "0 1", "", "1 2"), g.ids) == Cover([{0, 1}, {1, 2}])
    store = load_constraints(lines("pairs.txt", "0 1 ML", "1 2 CL"), g.ids)
    assert (store.ml, store.cl) == ({(0, 1)}, {(1, 2)})
    assert main(["winloss", str(lines("sweep.csv", "network,a,b", "n1,0.9,0.1", "n2,0.2,0.8"))]) == 0
    want = harness.win_loss_table({"a": [0.9, 0.2], "b": [0.1, 0.8]}).to_text()
    assert capsys.readouterr().out == want

    bad = [(load_edge_list, ("0 1", "1 2", "2")),
           (lambda path: load_cover(path, g.ids), ("0 1", "1 2", "1 9")),
           (lambda path: load_constraints(path, g.ids), ("0 1 ML", "1 2 CL", "0 2 XX"))]
    for read, rows in bad:
        with pytest.raises(ParseError) as raised:
            read(lines("bad.txt", *rows))
        assert raised.value.line_no == 3
    sweep = lines("bad.csv", "network,a,b", "n1,0.9,0.1", "n2,0.2")
    assert main(["winloss", str(sweep)]) == 2
    assert capsys.readouterr().err == f"error: {sweep}: line 3: row width mismatch\n"
