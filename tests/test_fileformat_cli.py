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

from conftest import (arnoux_rauzy_substitution, check_invariants,
                      lamlang_tables, random_reduced_word)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"

FIB = SAMPLES / "fibonacci_map.lam"
PERM = SAMPLES / "permutation_map.lam"
NONOR = SAMPLES / "nonorientable_map.lam"
THETA = SAMPLES / "theta_collapse.lam"
FULL = SAMPLES / "fullshift_2rose.lam"
FIBSUB = SAMPLES / "fibonacci_sub.lam"
TMSUB = SAMPLES / "thue_morse_sub.lam"
PERIOD2 = SAMPLES / "period2_map.lam"

ALL_SAMPLES = [FIB, PERM, NONOR, THETA, FULL, FIBSUB, TMSUB, PERIOD2]

# the full 2-rose with lengths 1 and 1.001: 1000 weight rows per unit length
NEAR_FULL_SHIFT = FULL.read_text().replace("edge b v v 1\n", "edge b v v 1.001\n")
# theta_collapse's map with edge lengths 1, 3/2 and 2
THETA_METRIC = (THETA.read_text().replace("edge e2 v0 v1 1\n", "edge e2 v0 v1 1.5\n")
                .replace("edge e3 v0 v1 1\n", "edge e3 v0 v1 2\n"))

# a reducible map: two golden-mean blocks, {a, b} feeding {c, d}, so the
# golden ratio is a defective eigenvalue of the whole transition matrix
TWO_GOLDEN_BLOCKS = """\
graph
vertex v
edge a v v 1
edge b v v 1
edge c v v 1
edge d v v 1
map
vmap v = v
map a = a b c
map b = a
map c = c d
map d = c
"""


# an expanding primitive train track map that sends the side {a, b'} to the
# side {a', b}: its substitution over oriented edges has period 2
PERIOD2_MAP = """\
graph
vertex v
edge a v v 1
edge b v v 1
map
vmap v = v
map a = a' b'
map b = a'
"""


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
        source = build_language(ai.language, ai.graph)
        assert source.p_counts(2) == [4, 4]  # letters closed under inversion
        assert source.words == [chr(0) + chr(2), chr(2) + chr(0),
                                chr(3) + chr(1), chr(1) + chr(3)]
        lang = source.materialize(2)
        assert lang.symmetric and not check_invariants(lang)

    @pytest.mark.parametrize("path, fault", [
        ("e1 e2", "is not an edge path"), ("e1 e1'", "is not reduced"),
        ("e2 e3' e3", "is not reduced"), ("e2 e3' e2", None)])
    def test_lamlang_path_checks(self, path, fault):
        text = THETA.read_text() + f"lamlang demo symmetric=0\n{path}\n"
        ai = parse(text)
        if fault is None:
            assert build_language(ai.language, ai.graph).p_counts(3)[2] == 1
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

    def test_reducible_map_reports_its_largest_block(self, tmp_path):
        path = tmp_path / "two_golden_blocks.lam"
        path.write_text(TWO_GOLDEN_BLOCKS)
        code, out, _ = run_cli("analyze", path)
        assert code == 0
        assert "irreducible: no; primitive: no" in out
        assert "stretch factor: 1.61803398875 (residual " in out

    def test_json_mode(self):
        code, out, _ = run_cli("analyze", FIB, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix_analysis"]["primitive"] is True
        assert payload["substitution"] == {"a": "a b", "b": "a"}

    def test_orientation_reversing_map_reports_no_substitution(self, tmp_path,
                                                               capsys):
        path = tmp_path / "period2.lam"
        path.write_text(PERIOD2_MAP)
        code, out, err = run_main(capsys, "analyze", path)
        assert (code, err) == (0, "")
        assert "train track: yes" in out
        assert "primitive: yes (witness k=2); expanding: yes" in out
        assert not any(line.startswith("substitution:")
                       for line in out.splitlines())
        assert ("no substitution: the induced substitution is not primitive: "
                "the map reverses an orientation of the edges") in out
        assert PERIOD2.read_text().endswith(PERIOD2_MAP)

    def test_orientation_reversing_map_json(self, tmp_path, capsys):
        path = tmp_path / "period2.lam"
        path.write_text(PERIOD2_MAP)
        code, out, _ = run_main(capsys, "analyze", path, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["substitution"] is None
        assert payload["matrix_analysis"]["primitive"] is True

    def test_orientation_reversing_map_is_not_counted(self, tmp_path, capsys):
        path = tmp_path / "period2.lam"
        path.write_text(PERIOD2_MAP)
        code, out, err = run_main(capsys, "complexity", path, "--max-n", "8")
        assert (code, out) == (2, "")
        assert err.startswith("precondition error: the induced substitution "
                              "is not primitive: the map reverses")
        assert "its square" in err
        assert "train track" not in err and "expanding" not in err


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

    def test_arnoux_rauzy_rose_maps_to_800(self, tmp_path, capsys):
        # a composition of Arnoux-Rauzy maps is a positive automorphism, an
        # orientable train track on the unit rose: its language and the
        # inverses give p(n) = 2((k - 1) n + 1)
        rng = random.Random(1991)
        for k in [2, 3, 4] * 4:
            sub = arnoux_rauzy_substitution(rng, k)
            source = tmp_path / f"ar{k}.lam"
            source.write_text(
                "graph\nvertex v\n"
                + "".join(f"edge {x} v v 1\n" for x in sub.letters)
                + "map\nvmap v = v\n"
                + "".join(f"map {x} = {' '.join(sub.letters[c] for c in img)}\n"
                          for x, img in zip(sub.letters, sub.images)))
            code, out, _ = run_main(capsys, "complexity", source, "--max-n", "800")
            assert code == 0, sub
            assert [int(row.split(",")[1]) for row in table_rows(out)] == \
                [2 * ((k - 1) * n + 1) for n in range(1, 801)], sub

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

    def test_overflowing_exponent_vanishes_at_the_start(self, capsys):
        # c0 * delta * ln a is past float range: every bound is 0, not inf
        code, out, err = run_main(capsys, "dimension", FIB, "--a", "1e308",
                                  "--delta", "1e308", "--max-n", "20")
        assert (code, err) == (0, "")
        assert out.endswith("delta=1e+308: vanishing=yes, first bound < 1e-06 "
                            "at n* = 2, final bound at n=20: 0\n")

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

    def test_out_of_memory_below_the_cap_exit_3(self):
        # collapse --max-n 150 fits the default cap and peaks at about 254 MB
        import resource

        def cap_address_space():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "lamtool.cli", "collapse", str(THETA),
             "--max-n", "150"],
            capture_output=True, text=True, preexec_fn=cap_address_space,
            timeout=60)
        assert proc.returncode == 3
        assert proc.stderr == "resource cap: out of memory during collapse\n"

    def test_certificate_search_within_the_cap_exit_3(self, tmp_path):
        # each ray of this substitution holds every length-2 factor only
        # millions of letters out, and the certified prefix has billions:
        # the search reads at most the cap of each ray, and the prefix is
        # refused, in bounded memory
        import resource

        def cap_address_space():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        source = tmp_path / "slow_rays.lam"
        source.write_text("sub\nsub a = c d a f a a a f\nsub b = d a f a e c e e\n"
                          "sub c = c c a f c c f c\nsub d = b\nsub e = d\n"
                          "sub f = c f c c d a\n")
        env = {k: v for k, v in os.environ.items() if k != "LAMTOOL_SIZE_CAP"}
        proc = subprocess.run(
            [sys.executable, "-m", "lamtool.cli", "complexity", str(source),
             "--max-n", "3"],
            capture_output=True, text=True, env=env,
            preexec_fn=cap_address_space, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr.startswith("size cap exceeded: eigenray prefix needs")
        assert "out of memory" not in proc.stderr


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


# Runs each argv, its words joined by tabs, through ``cli.main`` in one fresh
# interpreter that imports neither module itself, and prints per argv its
# exit code and which of hashlib and json have been imported by then.
LAZY_IMPORT_PROBE = """
import contextlib, io, sys
from lamtool import cli
for arg in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(arg.split("\\t"))
    print(code, *sorted({"hashlib", "json"} & set(sys.modules)))
"""


# Runs each argv through ``cli.main`` in one fresh interpreter and prints,
# per argv, its exit code, stdout and stderr.  With "block" as its first
# argument it first sets ``sys.modules["numpy"]`` to None, which makes every
# numpy import fail.
CAPTURE_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from lamtool import cli
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _readme_commands():
    """The argv of every README line that runs lamtool on a sample input."""
    readme = (SAMPLES.parent / "README.md").read_text()
    return [line.split()[1:] for line in readme.splitlines()
            if re.match(r"lamtool \w+ sample_inputs/", line)]


def _import_probe(argvs):
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportBudget:
    """No command loads numpy: the counting route, the enumerating route
    (collapse, compare on a map, non-uniform metric counts), every command
    on a full shift, the spectrum of a reducible map and the refusals of a
    reducible map or substitution all run without it.  No start-up loads
    the introspection modules that ``dataclasses`` pulls in, and only the
    commands that print a digest or JSON load hashlib or json."""

    def test_start_up_loads_no_introspection_modules(self):
        # modules the environment's ``site`` loads are in ``before``
        probe = ("import json, sys\n"
                 "before = set(sys.modules)\n"
                 "import lamtool.cli\n"
                 "print(json.dumps(sorted(set(sys.modules) - before)))\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        added = set(json.loads(proc.stdout))
        assert "lamtool.cli" in added
        assert not added & {"dataclasses", "inspect", "dis", "ast", "tokenize",
                            "linecache"}, sorted(added)

    def test_words_load_no_numpy(self, tmp_path):
        metric = tmp_path / "theta_metric.lam"
        metric.write_text(THETA_METRIC)
        argvs = [["--version"]]
        for path in (FIB, PERM, NONOR, THETA):
            argvs += [["analyze", str(path)], ["analyze", str(path), "--json"]]
        argvs.append(["dimension", str(FULL), "--a", "3", "--delta", "0.5",
                      "--max-n", "14"])
        for path in (FIBSUB, FIB, THETA):
            argvs += [["complexity", str(path), "--max-n", "25"],
                      ["dimension", str(path), "--a", "2", "--delta", "0.5",
                       "--max-n", "40"]]
        for path in (FIBSUB, FIB):
            argvs.append(["compare", str(path), str(FULL), "--max-n", "40",
                          "--max-c", "6"])
        # the enumerating route, whose members are code-point strings
        argvs += [["collapse", str(THETA), "--max-n", "6"],
                  ["compare", str(THETA), str(FULL), "--max-n", "6",
                   "--max-c", "6"],
                  ["complexity", str(metric), "--max-n", "12"]]
        # a reducible map's spectrum comes from its strongly connected blocks
        blocks = tmp_path / "two_golden_blocks.lam"
        blocks.write_text(TWO_GOLDEN_BLOCKS)
        argvs += [["analyze", str(blocks)], ["analyze", str(blocks), "--json"]]
        results = _import_probe(argvs + [["complexity", str(blocks),
                                          "--max-n", "10"]])
        # the import line, one line per argv and the refusal
        assert [code for _, code, _ in results] == [0] * (len(argvs) + 1) + [2]
        assert not any(loaded for _, _, loaded in results), results

        # primitivity is decided from the matrix's support, with no spectrum
        reducible = tmp_path / "reducible_sub.lam"
        reducible.write_text("sub a = a b\nsub b = b\n")
        (_, _, before), (_, code, loaded) = _import_probe(
            [["complexity", str(reducible), "--max-n", "10"]])
        assert code == 2 and not before and not loaded

    def test_commands_load_no_hashlib_or_json(self):
        # the input digest and --json output import them when they print
        argvs = [["complexity", THETA, "--max-n", "25"],
                 ["collapse", THETA, "--max-n", "6"],
                 ["dimension", FIB, "--a", "2", "--delta", "0.5", "--max-n", "40"],
                 ["compare", FIBSUB, FULL, "--max-n", "40", "--max-c", "6"],
                 ["compare", THETA, FULL, "--max-n", "6", "--max-c", "6"],
                 ["analyze", FIB, "--json"]]
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_IMPORT_PROBE,
             *("\t".join(map(str, argv)) for argv in argvs)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0"] * 5 + ["0 hashlib json"]

    def test_numpy_blocked_child_prints_the_same(self):
        argvs = [["--version"], *_readme_commands()]
        assert len(argvs) > 1
        for path in ALL_SAMPLES:
            path = str(path.relative_to(SAMPLES.parent))
            argvs += [["analyze", path], ["analyze", path, "--json"],
                      ["complexity", path, "--max-n", "12"],
                      ["dimension", path, "--a", "2", "--delta", "0.5",
                       "--max-n", "20"],
                      ["collapse", path, "--max-n", "6"],
                      ["compare", path, "sample_inputs/fullshift_2rose.lam",
                       "--max-n", "12", "--max-c", "6"]]
        runs = {}
        for mode in ("block", "normal"):
            proc = subprocess.run(
                [sys.executable, "-c", CAPTURE_PROBE, mode, json.dumps(argvs)],
                capture_output=True, text=True, cwd=SAMPLES.parent)
            assert proc.returncode == 0, proc.stderr
            runs[mode] = json.loads(proc.stdout)
        assert runs["block"] == runs["normal"]
        assert {code for code, _, _ in runs["normal"]} == {0, 2}


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", [
        ("analyze", FIB, "--json"),
        ("complexity", FIBSUB, "--max-n", "3"),
    ], ids=["analyze", "complexity"])
    def test_reader_gone_exit_1_quietly(self, args, unbuffered):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the child starts
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lamtool.cli", *map(str, args)],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == b""


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


# (edge lengths, paths) of lamlang fixtures, by id
LAMLANG = {
    "unit": ({"a": "1", "b": "1"}, ["a b a b' a' b' a b", "b a b a b a"]),
    "lengths-1-3/2": ({"a": "1", "b": "1.5"}, ["a b a b' a'", "b a b a"]),
    "long-lengths-1-3/2": ({"a": "1", "b": "1.5"}, ["a b a b' a' b' a b a b a b'"]),
}


class TestLamlangTables:
    """complexity, compare and dimension on lamlang files, inside their
    depth, against an independent count of the subword and inverse closure."""

    @staticmethod
    def write(tmp_path, lengths, paths):
        """The lamlang file and its depth: every length is at least 1, so
        the depth bounds the metric counts too."""
        source = tmp_path / "lang.lam"
        source.write_text("graph\nvertex v\n"
                          + "".join(f"edge {e} v v {x}\n" for e, x in lengths.items())
                          + "lamlang demo symmetric=1\n" + "\n".join(paths) + "\n")
        return source, max(len(text.split()) for text in paths)

    @pytest.mark.parametrize("lengths, paths", LAMLANG.values(), ids=LAMLANG)
    def test_tables_match_the_closure(self, tmp_path, monkeypatch, capsys,
                                      lengths, paths):
        source, depth = self.write(tmp_path, lengths, paths)
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

    # the dimension window [ceil(n/2), n] needs four points: depth 6 or more
    @pytest.mark.parametrize("fixture", ["unit", "long-lengths-1-3/2"])
    def test_dimension_stays_inside_the_depth(self, tmp_path, capsys, fixture):
        lengths, paths = LAMLANG[fixture]
        source, depth = self.write(tmp_path, lengths, paths)
        metric = lamlang_tables(paths, lengths, depth)[2]
        target = tmp_path / "series.csv"
        args = ["--a", "2", "--delta", "0.5", "--max-n"]
        code, out, err = run_main(capsys, "dimension", source, *args, depth,
                                  "--csv", target)
        assert code == 0
        assert "extended search" not in out
        assert err == ""
        rows = [row.split(",") for row in target.read_text().splitlines()[1:]]
        start = math.ceil(2 * max(map(Fraction, lengths.values())))
        assert [(int(n), int(b)) for n, b, _ in rows] == \
            [(n, metric[n - 1]) for n in range(start, depth + 1)]

        code, out, err = run_main(capsys, "dimension", source, *args, depth + 1)
        assert code == 4
        assert out == ""
        assert f"beta_metric({depth + 1}) needs depth {depth + 1}, " \
               f"enumerated {depth}" in err


class TestLongLamlangPath:
    """One 1000-letter reduced path on the 2-rose: its table is counted from
    the path, not from a listing of its subwords, and the size cap bounds
    the path's letters."""

    @staticmethod
    def write(tmp_path):
        word = random_reduced_word(random.Random(26), 2, 1000)
        names = ["a", "a'", "b", "b'"]
        source = tmp_path / "long.lam"
        source.write_text("graph\nvertex v\nedge a v v 1\nedge b v v 1\n"
                          "lamlang long symmetric=1\n"
                          + " ".join(names[c] for c in word) + "\n")
        return source, word

    def test_table_to_the_path_length(self, tmp_path, capsys):
        source, word = self.write(tmp_path)
        code, out, err = run_main(capsys, "complexity", source, "--max-n", 1000)
        assert (code, err) == (0, "")
        p = [int(row.split(",")[1]) for row in table_rows(out)]
        assert len(p) == 1000
        inverse = tuple(c ^ 1 for c in reversed(word))
        assert p[:40] == [len({w[i:i + n] for w in (word, inverse)
                               for i in range(1001 - n)}) for n in range(1, 41)]
        assert all(p[n - 1] <= 2 * (1001 - n) for n in range(1, 1001))

    def test_size_cap_bounds_the_path(self, tmp_path, capsys, monkeypatch):
        source, _ = self.write(tmp_path)
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "1999")  # the words hold 2000
        code, out, err = run_main(capsys, "complexity", source, "--max-n", 1000)
        assert (code, out) == (3, "")
        assert err.startswith("size cap exceeded: lamlang paths needs 2000 int32 words")


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
