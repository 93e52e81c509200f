import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lamtool.errors import ParseError
from lamtool.fileformat import build_language, format_length, parse, serialize

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"

FIB = SAMPLES / "fibonacci_map.lam"
PERM = SAMPLES / "permutation_map.lam"
NONOR = SAMPLES / "nonorientable_map.lam"
THETA = SAMPLES / "theta_collapse.lam"
FULL = SAMPLES / "fullshift_2rose.lam"
FIBSUB = SAMPLES / "fibonacci_sub.lam"
TMSUB = SAMPLES / "thue_morse_sub.lam"

ALL_SAMPLES = [FIB, PERM, NONOR, THETA, FULL, FIBSUB, TMSUB]


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "lamtool.cli", *map(str, args)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


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

    def test_lamlang_paths(self):
        text = ("graph\nvertex v\nedge a v v 1\nedge b v v 1\n"
                "lamlang demo symmetric=1\na b\nb a\n")
        ai = parse(text)
        lang = build_language(ai.language, ai.graph)
        assert lang.p(1) == 4  # letters closed under inversion
        assert lang.symmetric and not lang.check_invariants()

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

    def test_round_trip_on_shipped_corpus(self):
        for path in ALL_SAMPLES:
            ai = parse(path.read_text())
            canonical = serialize(ai)
            again = parse(canonical)
            assert serialize(again) == canonical


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

    def test_csv_file_output(self, tmp_path):
        target = tmp_path / "out.csv"
        code, _, _ = run_cli("complexity", FIBSUB, "--max-n", "5",
                             "--csv", target)
        assert code == 0
        assert target.read_text().splitlines()[0] == "n,p,beta,beta_metric"


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

    def test_csv_columns(self, tmp_path):
        target = tmp_path / "series.csv"
        code, _, _ = run_cli("dimension", FIB, "--a", "2", "--delta", "0.5",
                             "--max-n", "30", "--csv", target)
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "n,beta,bound"


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
        source.write_text("graph\nvertex v\nedge a v v 1\nedge b v v 1.001\n"
                          "lamlang fullshift symmetric=1 closure=fullshift\n")
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
