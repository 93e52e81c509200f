import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from lamtool import cli, graphs
from lamtool.errors import ParseError
from lamtool.fileformat import build_language, format_length, parse

from conftest import check_invariants, lamlang_tables

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"

FIB = SAMPLES / "fibonacci_map.lam"
PERM = SAMPLES / "permutation_map.lam"
NONOR = SAMPLES / "nonorientable_map.lam"
THETA = SAMPLES / "theta_collapse.lam"
FULL = SAMPLES / "fullshift_2rose.lam"
FIBSUB = SAMPLES / "fibonacci_sub.lam"
TMSUB = SAMPLES / "thue_morse_sub.lam"

ALL_SAMPLES = [FIB, PERM, NONOR, THETA, FULL, FIBSUB, TMSUB]

# the full 2-rose with lengths 1 and 1.001: 1000 weight rows per unit length
NEAR_FULL_SHIFT = FULL.read_text().replace("edge b v v 1\n", "edge b v v 1.001\n")
# theta_collapse's map with edge lengths 1, 3/2 and 2
THETA_METRIC = (THETA.read_text().replace("edge e2 v0 v1 1\n", "edge e2 v0 v1 1.5\n")
                .replace("edge e3 v0 v1 1\n", "edge e3 v0 v1 2\n"))


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "lamtool.cli", *map(str, args)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args):
    """``run_cli`` in-process."""
    code = cli.main(list(map(str, args)))
    out, err = capsys.readouterr()
    return code, out, err


def table_rows(out):
    return [line for line in out.splitlines() if line[:1].isdigit()]


class TestParser:
    def test_fibonacci_file(self):
        ai = parse(FIB.read_text())
        assert ai.graph is not None and ai.graph_map is not None
        assert ai.graph.alphabet.names == ("a", "b")
        assert ai.graph_map.edge_images[0] == ai.graph.alphabet.parse("a b")

    def test_comments_and_blank_lines_ignored(self):
        ai = parse("# intro\n\ngraph\nvertex v  # trailing\nedge a v v 1\n"
                   "edge b v v 1\n")
        assert ai.graph.betti() == 2

    def test_malformed_token_names_the_token(self):
        with pytest.raises(ParseError) as err:
            parse("graph\nvertex v\nedge a- v v 1\n")
        assert "a-" in str(err.value)

    def test_map_without_graph_rejected(self):
        with pytest.raises(ParseError):
            parse("map\nmap a = a b\n")

    def test_missing_edge_rule_rejected(self):
        with pytest.raises(ParseError):
            parse("graph\nvertex v\nedge a v v 1\nedge b v v 1\n"
                  "map\nmap a = a b\n")

    @pytest.mark.parametrize("lines, message", [
        ("vertex v\nvmap zz = v\n", "vmap for unknown vertex 'zz'"),
        ("vertex v\nvmap v = v\nvmap v = v\n", "line 3: duplicate vmap for 'v'"),
        ("vertex v\nvertex v\nvmap v = v\n", "line 2: duplicate vertex 'v'"),
    ], ids=["unknown-vertex", "second-vmap", "repeated-vertex"])
    def test_vertex_faults_exit_1(self, tmp_path, capsys, lines, message):
        target = tmp_path / "input.lam"
        target.write_text(lines + "edge a v v 1\nedge b v v 1\nmap a = a b\n"
                          "map b = a\n")
        code, out, err = run_main(capsys, "analyze", target)
        assert (code, out) == (1, "")
        assert f"parse error: {message}" in err

    @pytest.mark.parametrize("keyword", ["map", "sub", "edge", "vertex", "vmap",
                                         "graph", "lamlang"])
    def test_keyword_edge_name_exit_1(self, tmp_path, capsys, keyword):
        # a lamlang path line starting with the edge would read as a keyword
        target = tmp_path / "input.lam"
        target.write_text(f"graph\nvertex v\nedge {keyword} v v 1\nedge b v v 1\n"
                          f"lamlang demo symmetric=1\n{keyword} b\n")
        code, out, err = run_main(capsys, "complexity", target, "--max-n", "3")
        assert (code, out) == (1, "")
        assert err == f"parse error: line 3: edge name {keyword!r} is a keyword\n"

    def test_lamlang_paths(self):
        text = ("graph\nvertex v\nedge a v v 1\nedge b v v 1\n"
                "lamlang demo symmetric=1\na b\nb a\n")
        ai = parse(text)
        lang = build_language(ai.language, ai.graph)
        assert lang.p(1) == 4  # letters closed under inversion
        assert lang.symmetric and not check_invariants(lang)

    @pytest.mark.parametrize("path, fault", [
        ("e1 e2", "is not an edge path"), ("e1 e1'", "is not reduced"),
        ("e2 e3' e3", "is not reduced"), ("e2 e3' e2", None)])
    def test_lamlang_path_checks(self, path, fault):
        text = THETA.read_text() + f"lamlang demo symmetric=0\n{path}\n"
        ai = parse(text)
        if fault is None:
            assert build_language(ai.language, ai.graph).p(3) == 1
            return
        with pytest.raises(ParseError, match=re.escape(f"lamlang path {path!r} {fault}")):
            build_language(ai.language, ai.graph)

    def test_fullshift_closure_flag(self):
        ai = parse(FULL.read_text())
        assert ai.language.closure == "fullshift"
        assert ai.language.paths == []

    def test_exact_decimal_lengths(self):
        ai = parse("graph\nvertex v\nedge a v v 0.25\nedge b v v 1.5\n")
        assert ai.graph.lengths == (Fraction(1, 4), Fraction(3, 2))

    def test_format_length_round_trip(self):
        for text in ("1", "0.25", "1.5", "0.1", "3"):
            assert format_length(Fraction(text)) == text


class TestAnalyzeCommand:
    def test_fibonacci_report(self):
        code, out, _ = run_cli("analyze", FIB)
        assert code == 0
        assert "train track: yes" in out
        assert "primitive: yes (witness k=2)" in out
        assert "stretch factor: 1.61803398875" in out
        assert "orientable: yes, positive side: a b" in out

    def test_permutation_report(self):
        code, out, _ = run_cli("analyze", PERM)
        assert code == 0
        assert "train track: yes" in out
        assert "primitive: no" in out
        assert "expanding: no" in out

    def test_nonorientable_witness(self):
        code, out, _ = run_cli("analyze", NONOR)
        assert code == 0
        assert "orientable: no" in out and "witness" in out

    def test_parse_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.lam"
        bad.write_text("graph\nvertex v\nedge a- v v 1\n")
        code, _, err = run_cli("analyze", bad)
        assert code == 1 and "a-" in err

    def test_missing_map_exit_2(self, tmp_path):
        nomap = tmp_path / "nomap.lam"
        nomap.write_text("graph\nvertex v\nedge a v v 1\nedge b v v 1\n")
        code, _, _ = run_cli("analyze", nomap)
        assert code == 2

    def test_json_mode(self):
        code, out, _ = run_cli("analyze", FIB, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix_analysis"]["primitive"] is True
        assert payload["substitution"] == {"a": "a b", "b": "a"}


class TestComplexityCommand:
    def test_fibonacci_substitution_table(self):
        code, out, _ = run_cli("complexity", FIBSUB, "--max-n", "10")
        assert code == 0
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert [int(r.split(",")[1]) for r in rows] == list(range(2, 12))

    def test_thue_morse_low_orders(self):
        code, out, _ = run_cli("complexity", TMSUB, "--max-n", "3")
        assert code == 0
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert [int(r.split(",")[1]) for r in rows] == [2, 4, 6]

    def test_full_shift_table(self):
        code, out, _ = run_cli("complexity", FULL, "--max-n", "6")
        assert code == 0
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert [int(r.split(",")[1]) for r in rows] == \
            [4 * 3 ** (n - 1) for n in range(1, 7)]

    def test_theta_map_table_doubles_nothing(self):
        # non-orientable: the language is its own inverse closure
        code, out, _ = run_cli("complexity", THETA, "--max-n", "4")
        assert code == 0
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert [int(r.split(",")[1]) for r in rows] == [6, 12, 20, 28]

    def test_zero_max_n_is_usage_error(self):
        code, _, _ = run_cli("complexity", FIBSUB, "--max-n", "0")
        assert code == 1

    def test_under_enumerated_language_exit_4(self, tmp_path):
        shallow = tmp_path / "shallow.lam"
        shallow.write_text("graph\nvertex v\nedge a v v 1\nedge b v v 1\n"
                           "lamlang demo symmetric=0\na b\n")
        code, _, err = run_cli("complexity", shallow, "--max-n", "10")
        assert code == 4 and "depth" in err

    def test_linear_fit_holds_by_construction(self, tmp_path, capsys):
        # C = p(200)/200 = 4.975, and 4.975*200 is 994.9999999999999 in floats
        source = tmp_path / "fit.lam"
        source.write_text("sub\nsub a = c b\nsub b = a\nsub c = b\n")
        code, out, _ = run_main(capsys, "complexity", source, "--max-n", "200")
        assert code == 0
        assert table_rows(out)[-1].startswith("200,995,")
        assert "with C = 4.975 (pass; evidence, not a proof)" in out

    def test_csv_file_output(self, tmp_path):
        target = tmp_path / "out.csv"
        code, _, _ = run_cli("complexity", FIBSUB, "--max-n", "5",
                             "--csv", target)
        assert code == 0
        assert target.read_text().splitlines()[0] == "n,p,beta,beta_metric"

    @pytest.mark.parametrize("target", ["missing/out.csv", "."],
                             ids=["no-parent", "directory"])
    def test_unwritable_csv_exit_1(self, tmp_path, target):
        path = tmp_path / target
        code, _, err = run_cli("complexity", FIBSUB, "--max-n", "5", "--csv", path)
        assert code == 1
        assert err.startswith(f"usage error: cannot write {path}: ")
        assert "Traceback" not in err


class TestDimensionCommand:
    def test_fibonacci_vanishing_with_extension(self):
        code, out, _ = run_cli("dimension", FIB, "--a", "2", "--delta", "0.1",
                               "--max-n", "200")
        assert code == 0
        assert "vanishing=yes" in out
        assert "n* = 372" in out

    def test_fullshift_contrast(self):
        code, out, _ = run_cli("dimension", FULL, "--a", "3", "--delta", "0.5",
                               "--max-n", "14")
        assert code == 0
        assert "vanishing=no" in out
        assert "dim upper estimate" in out
        dim = float(out.split("]: ")[1].splitlines()[0])
        assert abs(dim - 1.0) < 0.02

    def test_delta_zero_exit_1(self):
        code, _, _ = run_cli("dimension", FIB, "--a", "2", "--delta", "0",
                             "--max-n", "20")
        assert code == 1

    def test_a_below_one_exit_1(self):
        code, _, _ = run_cli("dimension", FIB, "--a", "0.5", "--delta", "0.5",
                             "--max-n", "20")
        assert code == 1

    @pytest.mark.parametrize("a, delta", [
        ("inf", "0.5"), ("nan", "0.5"), ("-inf", "0.5"),
        ("2", "inf"), ("2", "nan"), ("2", "0.5,inf")])
    def test_non_finite_values_exit_1(self, a, delta):
        code, _, err = run_cli("dimension", FIB, "--a", a, "--delta", delta,
                               "--max-n", "20")
        assert code == 1
        assert "Traceback" not in err

    def test_json_report(self):
        code, out, _ = run_cli("dimension", FIB, "--a", "2",
                               "--delta", "0.5,0.1", "--max-n", "60", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["reports"]) == 2
        assert all(rep["vanishing"] for rep in payload["reports"])

    def test_extension_table_counted_once(self, monkeypatch, capsys):
        from lamtool import cli
        requests = []
        make_source = cli._source

        def source(ai):
            src = make_source(ai)
            metric_beta = src.metric_beta

            def counting(n_max):
                requests.append(n_max)
                return metric_beta(n_max)

            src.metric_beta = counting
            return src

        monkeypatch.setattr(cli, "_source", source)
        code = cli.main(["dimension", str(FIB), "--a", "2",
                         "--delta", "0.5,0.1,0.01", "--max-n", "20"])
        assert code == 0
        assert capsys.readouterr().out.count("extended search to n=5000") == 3
        assert requests == [20, 5000]

    def test_extension_over_the_cap_keeps_the_window_answer(self, tmp_path,
                                                            capsys):
        # the table to n = 14 fits the cap, the extension to n = 5000 does not
        source = tmp_path / "near.lam"
        source.write_text(NEAR_FULL_SHIFT)
        argv = ["dimension", source, "--a", "3", "--delta", "0.5", "--max-n", "14"]
        code, out, err = run_main(capsys, *argv)
        assert code == 0
        assert "delta=0.5: vanishing=no, first bound < 1e-06 at n* = -, final bound " \
               "at n=14: 2526.71763783\n" in out
        assert "extended search" not in out
        assert err.count("\n") == 1
        assert err.startswith("note: search not extended to n=5000: size cap exceeded")
        code, out, _ = run_main(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["reports"][0]["extended_to"] is None

    def test_metric_extension_refuses_at_the_materialization_limit(self, tmp_path,
                                                                   capsys):
        source = tmp_path / "theta_metric.lam"
        source.write_text(THETA_METRIC)
        code, out, err = run_main(capsys, "dimension", source, "--a", "2",
                                  "--delta", "0.5", "--max-n", "50")
        assert code == 4
        assert out == ""
        assert "beyond the materialization limit 600" in err

    def test_window_below_the_shortest_edge_exit_2(self, tmp_path, capsys):
        source = tmp_path / "long_edges.lam"
        source.write_text(FIB.read_text().replace(" 1\n", " 10\n"))
        code, out, err = run_main(capsys, "dimension", source, "--a", "2",
                                  "--delta", "0.5", "--max-n", "8")
        assert code == 2
        assert out == ""
        assert "beta_metric(8) = 0 in the dimension window [4, 8]" in err
        assert "no path of the language has metric length <= 8" in err
        assert "the shortest edge has length 10)" in err
        code, out, _ = run_main(capsys, "dimension", source, "--a", "2",
                                "--delta", "0.5", "--max-n", "40")
        assert code == 0
        assert "vanishing=yes" in out

    def test_bound_past_float_range_printed_from_its_log(self, tmp_path,
                                                          capsys):
        target = tmp_path / "series.csv"
        code, out, _ = run_main(capsys, "dimension", FULL, "--a", "3",
                                "--delta", "0.5", "--max-n", "3000",
                                "--csv", target)
        assert code == 0
        assert "inf" not in out
        final = out.split("final bound at n=3000: ")[1].split(",")[0]
        mantissa, exponent = final.split("e+")
        assert 1 <= float(mantissa) < 10
        # beta(3000) * 3^(-1500) * 3^(1/2), with beta(n) = 2 (3^n - 1)
        expected = (math.log10(2 * (3 ** 3000 - 1)) - 1500 * math.log10(3)
                    + 0.5 * math.log10(3))
        assert int(exponent) == 716
        assert abs(math.log10(float(mantissa)) + int(exponent) - expected) < 1e-9
        rows = target.read_text().splitlines()
        assert rows[-1].endswith("," + final)
        assert not any(row.endswith(",inf") for row in rows)
        # bounds a float holds print as before: 16 * 3^(-2/2) * 3^(1/2)
        assert rows[1] == "2,16,9.23760430703"

    def test_csv_columns(self, tmp_path):
        target = tmp_path / "series.csv"
        code, _, _ = run_cli("dimension", FIB, "--a", "2", "--delta", "0.5",
                             "--max-n", "30", "--csv", target)
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "n,beta,bound"

    @pytest.mark.parametrize("target", ["missing/out.csv", "."],
                             ids=["no-parent", "directory"])
    def test_unwritable_csv_exit_1(self, tmp_path, target):
        path = tmp_path / target
        code, _, err = run_cli("dimension", FIB, "--a", "2", "--delta", "0.5",
                               "--max-n", "30", "--csv", path)
        assert code == 1
        assert err.startswith(f"usage error: cannot write {path}: ")
        assert "Traceback" not in err


class TestSizeCapSetting:
    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
    def test_unusable_value_exit_1(self, value):
        env = dict(os.environ, LAMTOOL_SIZE_CAP=value)
        proc = subprocess.run(
            [sys.executable, "-m", "lamtool.cli", "complexity", str(FIBSUB),
             "--max-n", "5"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "LAMTOOL_SIZE_CAP" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_certified_prefix_beyond_cap_exit_3(self):
        env = dict(os.environ, LAMTOOL_SIZE_CAP="1000")
        proc = subprocess.run(
            [sys.executable, "-m", "lamtool.cli", "complexity", str(FIBSUB),
             "--max-n", "500"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 3
        assert "eigenray prefix" in proc.stderr

    def test_full_shift_beyond_cap_exit_3(self):
        env = dict(os.environ, LAMTOOL_SIZE_CAP="1000")
        proc = subprocess.run(
            [sys.executable, "-m", "lamtool.cli", "complexity", str(FULL),
             "--max-n", "500"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 3
        assert "full-shift counts to depth 500" in proc.stderr

    def test_near_equal_lengths_full_shift_exit_3(self, tmp_path):
        # lengths 1 and 1.001 make 1000 weight rows per unit of metric length
        source = tmp_path / "near.lam"
        source.write_text(NEAR_FULL_SHIFT)
        code, _, err = run_cli("complexity", source, "--max-n", "1000")
        assert code == 3
        assert "full-shift counts to depth 1000" in err


class TestCollapseCommand:
    def test_size_cap_exit_3(self):
        env = dict(os.environ, LAMTOOL_SIZE_CAP="50")
        proc = subprocess.run(
            [sys.executable, "-m", "lamtool.cli", "collapse", str(THETA),
             "--max-n", "15"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 3
        assert "cap" in proc.stderr

    def test_theta_report(self):
        code, out, _ = run_cli("collapse", THETA, "--max-n", "15")
        assert code == 0
        assert "lift stretch = 2" in out
        assert "multiplicity bound C0 = 4" in out
        assert "all inequalities hold: yes" in out
        assert "growth equivalence witness C = " in out

    def test_rose_is_trivial(self):
        code, out, _ = run_cli("collapse", FIB, "--max-n", "8")
        assert code == 0
        assert "rose input" in out
        assert "witness C = 1" in out

    @pytest.mark.parametrize("max_c", ["0", "-3"])
    def test_max_c_below_one_exit_1(self, max_c):
        code, _, err = run_cli("collapse", THETA, "--max-n", "5", "--max-c", max_c)
        assert code == 1
        assert "--max-c must be >= 1" in err

    @pytest.mark.parametrize("text, found", [
        ("graph\nvertex v0\nvertex v1\nedge e1 v0 v1 1\nedge e2 v0 v1 1\n"
         "edge e3 v0 v1 1\n", "found none"),
        (THETA.read_text() + "lamlang demo symmetric=1\ne1 e2'\n",
         "found ['map', 'lamlang']")], ids=["graph-only", "map-and-lamlang"])
    def test_driver_must_be_unique(self, tmp_path, text, found):
        target = tmp_path / "input.lam"
        target.write_text(text)
        for args in (("collapse", target, "--max-n", "5"),
                     ("compare", target, FIBSUB, "--max-n", "5", "--max-c", "3")):
            code, _, err = run_cli(*args)
            assert code == 2
            assert "exactly one of map, sub, lamlang" in err and found in err


class TestInvalidGraph:
    """Every command refuses, where the file is loaded, a graph outside the
    paper's standing hypotheses: rank at least 2, every vertex of degree at
    least 3."""

    RANK_ONE_MAP = "graph\nvertex v\nedge a v v 1\nmap\nvmap v = v\nmap a = a a\n"
    VALENCE_TWO_LAMLANG = ("graph\nvertex v\nvertex w\nedge a v v 1\n"
                           "edge b v v 1\nedge c v w 1\nedge d w v 1\n"
                           "lamlang demo symmetric=1\na b\nc d\n")

    @pytest.mark.parametrize("text, violation", [
        (RANK_ONE_MAP, "first Betti number 1 is below the minimum rank 2"),
        (VALENCE_TWO_LAMLANG, "vertex w has degree 2 < 3")],
        ids=["rank-1-map", "valence-2-lamlang"])
    @pytest.mark.parametrize("command", [
        ["analyze"], ["complexity", "--max-n", "5"],
        ["dimension", "--a", "2", "--delta", "0.5", "--max-n", "8"],
        ["collapse", "--max-n", "3"], ["compare", FIBSUB, "--max-n", "5", "--max-c", "3"]],
        ids=lambda argv: argv[0])
    def test_every_command_exit_2(self, tmp_path, capsys, text, violation, command):
        target = tmp_path / "input.lam"
        target.write_text(text)
        code, out, err = run_main(capsys, command[0], target, *command[1:])
        assert (code, out) == (2, "")
        assert "precondition error: invalid graph: " in err and violation in err


class TestOneSearch:
    """A graph runs its breadth-first search, which also checks the standing
    hypotheses, once, when it is built; the rose that ``maximal_subtree``
    builds is another graph and runs its own."""

    @pytest.mark.parametrize("argv", [
        ["collapse", THETA, "--max-n", "5"],
        ["compare", THETA, FIBSUB, "--max-n", "5", "--max-c", "3"]],
        ids=lambda argv: argv[0])
    def test_theta_searched_once(self, monkeypatch, capsys, argv):
        searched = Counter()
        search = graphs._root_paths

        def counting(graph):
            searched[graph.vertices] += 1
            return search(graph)

        monkeypatch.setattr(graphs, "_root_paths", counting)
        code, _, _ = run_main(capsys, *argv)
        assert code == 0
        assert searched == {("v0", "v1"): 1, ("v0",): 1}


class TestCompareCommand:
    def test_linear_vs_exponential_fails_each_c(self):
        code, out, _ = run_cli("compare", FIBSUB, FULL,
                               "--max-n", "40", "--max-c", "6")
        assert code == 0
        assert "no equivalence constant" in out
        assert out.count("C=") == 6

    def test_self_comparison_is_c1(self):
        code, out, _ = run_cli("compare", FIBSUB, FIBSUB,
                               "--max-n", "20", "--max-c", "4")
        assert code == 0
        assert "witness C = 1" in out

    def test_theta_base_vs_its_own_substitution(self):
        code, out, _ = run_cli("compare", THETA, THETA,
                               "--max-n", "12", "--max-c", "8")
        assert code == 0
        assert "witness C = 1" in out


# Runs each argv through ``cli.main`` in one fresh interpreter and prints,
# per argv, its exit code and whether numpy has been imported by then.
IMPORT_PROBE = """
import contextlib, io, json, sys
from lamtool import cli
results = [["import lamtool.cli", 0, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(results))
"""


def _import_probe(argvs):
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportBudget:
    """numpy loads only on the enumerating route (collapse, non-uniform
    metric counts, listed languages) and for a reducible matrix; the
    counting route and every command on a full shift start without it."""

    def test_numpy_loads_only_for_word_arrays(self, tmp_path):
        light = [["--version"]]
        for path in (FIB, PERM, NONOR, THETA):
            light += [["analyze", str(path)], ["analyze", str(path), "--json"]]
        light.append(["dimension", str(FULL), "--a", "3", "--delta", "0.5",
                      "--max-n", "14"])
        for path in (FIBSUB, FIB, THETA):
            light += [["complexity", str(path), "--max-n", "25"],
                      ["dimension", str(path), "--a", "2", "--delta", "0.5",
                       "--max-n", "40"]]
        for path in (FIBSUB, FIB):
            light.append(["compare", str(path), str(FULL), "--max-n", "40",
                          "--max-c", "6"])
        results = _import_probe(light)
        assert [code for _, code, _ in results] == [0] * len(results)
        assert not any(loaded for _, _, loaded in results), results

        metric = tmp_path / "theta_metric.lam"
        metric.write_text(THETA_METRIC)
        # each in a fresh interpreter: once loaded, numpy stays loaded
        for argv in (["collapse", str(THETA), "--max-n", "6"],
                     ["compare", str(THETA), str(FULL), "--max-n", "6",
                      "--max-c", "6"],
                     ["complexity", str(metric), "--max-n", "12"]):
            (_, _, before), (_, code, loaded) = _import_probe([argv])
            assert code == 0 and not before and loaded, argv


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("analyze", FIB, "--json"),
        ("analyze", THETA, "--json"),
        ("complexity", FIBSUB, "--max-n", "12"),
        ("complexity", THETA, "--max-n", "8"),
        ("dimension", FIB, "--a", "2", "--delta", "0.5,0.1", "--max-n", "40",
         "--json"),
        ("collapse", THETA, "--max-n", "10"),
    ])
    def test_byte_identical_across_runs(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second
        assert first[0] == 0


class TestExtremeArguments:
    """Every command on every sample with extreme argument values exits with
    a code of the contract and no traceback.  Depths between 10^4 and 10^7
    are left out: there a count is legitimately long."""

    MAX_N = ["0", "-1", "1", "2", "3", "7", "100000000", "1000000000000000000",
             "abc", "1e308", "nan"]
    MAX_C = ["0", "1", "6", "100000000"]
    A = ["nan", "inf", "-inf", "0", "-2", "1", "1.000001", "1e308", "1e-308"]
    DELTA = ["nan", "0", "1e-308", "1e308", "0.5", "0.5,,0.1", ","]

    def argvs(self, command, path):
        if command == "complexity":
            return [[path, "--max-n", n] for n in self.MAX_N]
        if command in ("collapse", "compare"):
            files = [path] if command == "collapse" else [path, str(FULL)]
            return [files + ["--max-n", n, "--max-c", c]
                    for n in self.MAX_N for c in self.MAX_C]
        pairs = ([(a, "0.5") for a in self.A] + [("2", d) for d in self.DELTA])
        return [[path, "--a", a, "--delta", d, "--max-n", n]
                for n in self.MAX_N for a, d in pairs]

    @pytest.mark.parametrize("command",
                             ["complexity", "collapse", "compare", "dimension"])
    def test_exit_code_in_contract(self, command, capsys):
        from lamtool import cli
        bad = []
        for path in ALL_SAMPLES:
            for argv in self.argvs(command, str(path)):
                code = cli.main([command] + argv)
                err = capsys.readouterr().err
                if code not in range(5) or "Traceback" in err:
                    bad.append((argv, code, err))
        assert bad == []


class TestLamlangTables:
    """complexity and compare on lamlang files, inside their depth, against
    an independent count of the subword and inverse closure."""

    @pytest.mark.parametrize("lengths, paths", [
        ({"a": "1", "b": "1"}, ["a b a b' a' b' a b", "b a b a b a"]),
        ({"a": "1", "b": "1.5"}, ["a b a b' a'", "b a b a"])],
        ids=["unit", "lengths-1-3/2"])
    def test_tables_match_the_closure(self, tmp_path, monkeypatch, capsys,
                                      lengths, paths):
        source = tmp_path / "lang.lam"
        source.write_text("graph\nvertex v\n"
                          + "".join(f"edge {e} v v {x}\n" for e, x in lengths.items())
                          + "lamlang demo symmetric=1\n" + "\n".join(paths) + "\n")
        # every length is at least 1, so the depth bounds the metric counts too
        depth = max(len(text.split()) for text in paths)
        p, beta, metric = lamlang_tables(paths, lengths, depth)
        code, out, _ = run_main(capsys, "complexity", source, "--max-n", depth)
        assert code == 0
        assert table_rows(out) == [f"{n},{p[n - 1]},{beta[n - 1]},{metric[n - 1]}"
                                   for n in range(1, depth + 1)]

        tables = []
        witness = cli.growth_equivalence_witness
        monkeypatch.setattr(cli, "growth_equivalence_witness",
                            lambda first, second, c_max: tables.append((first, second))
                            or witness(first, second, c_max))
        code, out, _ = run_main(capsys, "compare", source, source,
                                "--max-n", depth, "--max-c", "1")
        assert code == 0
        assert tables == [(p, p)]
        assert "witness C = 1" in out


class TestExtremeLengths:
    """Edge lengths beyond float range, or far apart, are counted exactly
    and stay inside the exit-code contract."""

    @pytest.mark.parametrize("length, command, code, message", [
        ("1e400", "complexity", 0, ""),
        ("1e20", "complexity", 0, ""),
        ("1e400", "dimension", 4, "below the start n=2" + "0" * 400 + "\n"),
        ("1e-400", "complexity", 3, "size cap exceeded: full-shift counts"),
        ("1e-400", "dimension", 3, "size cap exceeded: full-shift counts")],
        ids=["huge-complexity", "far-apart-complexity", "huge-dimension",
             "tiny-complexity", "tiny-dimension"])
    def test_full_shift(self, tmp_path, capsys, length, command, code, message):
        source = tmp_path / "extreme.lam"
        source.write_text(FULL.read_text().replace("edge b v v 1\n",
                                                   f"edge b v v {length}\n"))
        args = (["--max-n", "8"] if command == "complexity" else
                ["--a", "2", "--delta", "0.5", "--max-n", "8"])
        got, out, err = run_main(capsys, command, source, *args)
        assert got == code
        assert message in err
        if code == 0:
            # a path through b is longer than 8: only the powers of a and a'
            assert [int(r.split(",")[3]) for r in table_rows(out)] == \
                [2 * n for n in range(1, 9)]

    def test_map_with_a_long_edge(self, tmp_path, capsys):
        source = tmp_path / "extreme.lam"
        source.write_text(FIB.read_text().replace("edge b v v 1\n", "edge b v v 1e400\n"))
        code, _, err = run_main(capsys, "dimension", source, "--a", "2",
                                "--delta", "0.5", "--max-n", "8")
        assert code == 4
        assert "below the start n=2" + "0" * 400 + "\n" in err


class TestMutatedInputs:
    """Sample files with lines and tokens dropped, repeated or replaced from
    a pool of keywords, names, inverse tokens, options and lengths: every
    command exits with a code of the contract and no traceback."""

    POOL = ["graph", "vertex", "edge", "map", "vmap", "sub", "lamlang", "=",
            "a", "b", "c", "v", "v0", "v1", "e1", "e2", "e3", "demo",
            "a'", "b'", "e1'", "e2'", "v'",
            "0", "-1", "1", "0.5", "1.001", "1e400", "1e-400", "1/0", "nan",
            "symmetric=0", "symmetric=1", "closure=fullshift", "closure=subwords"]

    def mutate(self, rng, lines):
        lines = list(lines)
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(["drop", "duplicate", "insert", "replace-token",
                             "insert-token", "drop-token"])
            i = rng.randrange(len(lines)) if lines else 0
            if op == "insert" or not lines:
                lines.insert(i, " ".join(rng.choices(self.POOL, k=rng.randint(1, 5))))
            elif op == "drop":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            else:
                tokens = lines[i].split()
                k = rng.randrange(len(tokens) + 1)
                if op == "insert-token" or not tokens:
                    tokens.insert(k, rng.choice(self.POOL))
                elif op == "replace-token":
                    tokens[min(k, len(tokens) - 1)] = rng.choice(self.POOL)
                else:
                    del tokens[min(k, len(tokens) - 1)]
                lines[i] = " ".join(tokens)
        return lines

    def test_exit_code_in_contract(self, tmp_path, capsys):
        rng = random.Random(20240913)
        samples = [path.read_text().splitlines() for path in ALL_SAMPLES]
        source = str(tmp_path / "mutated.lam")
        bad = []
        for _ in range(170):  # six commands each: about 1000 runs
            text = "\n".join(self.mutate(rng, rng.choice(samples))) + "\n"
            with open(source, "w", encoding="utf-8") as handle:
                handle.write(text)
            for argv in (["analyze", source], ["analyze", source, "--json"],
                         ["complexity", source, "--max-n", "8"],
                         ["dimension", source, "--a", "2", "--delta", "0.5",
                          "--max-n", "8"],
                         ["collapse", source, "--max-n", "4"],
                         ["compare", source, source, "--max-n", "6", "--max-c", "3"]):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # escaped main: a traceback for the user
                    code = f"{type(exc).__name__}: {exc}"
                err = capsys.readouterr().err
                if code not in range(5) or "Traceback" in err:
                    bad.append((argv[0], code, text))
        assert bad == []
