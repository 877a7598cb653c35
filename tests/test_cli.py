import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from grpoly import cli, roots
from grpoly.catalog import FAMILY_ARITY, FAMILY_NAMES, family_polynomial
from grpoly.cli import main
from grpoly.equivalence import find_collisions
from grpoly.graphs import (SimilarityTriple, enumerate_graphs,
                           graph_from_graph6, graph_to_graph6,
                           similarity_triple)
from oracles import named_transform_reference

REPO = Path(__file__).resolve().parents[1]


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestPoly:
    def test_chromatic_k3_json(self, capsys):
        code, out, _ = run_cli(
            ["poly", "--family", "chromatic", "--named", "complete:3",
             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == {"basis": "power",
                                   "coeffs": ["0", "2", "-3", "1"]}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["poly", "--family", "matchingGen", "--named", "cycle:4",
             "--format", "csv"], capsys)
        assert code == 0
        assert out.strip() == "Cl,matchingGen,1;4;2"

    def test_multivariate_family(self, capsys):
        code, out, _ = run_cli(
            ["poly", "--family", "tutte", "--named", "complete:3"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["vars"] == ["X", "Y"]

    @pytest.mark.parametrize("family", ["tutte", "matchingBiv"])
    def test_csv_of_bivariate_family_is_usage_error(self, family, capsys):
        code, out, err = run_cli(
            ["poly", "--family", family, "--named", "complete:3",
             "--format", "csv"], capsys)
        assert code == 2
        assert out == ""
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [
            f"error: family {family} is multivariate; --format csv needs "
            "a univariate family"]

    def test_enumerated_source_line_count(self, capsys):
        code, out, _ = run_cli(
            ["poly", "--family", "independence", "--enum", "4"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 11

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["poly", "--family", "sigma", "--enum", "3"], capsys)
        assert code == 2
        assert "unknown family" in err

    def test_edge_cover_vertex_cap_exits_two(self, capsys):
        code, out, err = run_cli(
            ["poly", "--family", "edgeCover", "--named", "edgeless:40"],
            capsys)
        assert code == 2
        assert out == ""
        assert "subset family cap is n <= 24" in err

    @pytest.mark.parametrize("family, n, digest", [
        ("matchingGen", 8, "242969c2b8ef5368fcb24ee12e054a25"
                           "ae46efe15fda30cd6ad1ee215df896bc"),
        ("matchingDefect", 8, "8ac3cf315c8ff54655e57dcf66c59ece"
                              "fcff9d19c82343e75ee3589a67c2eca7"),
        ("matchingBiv", 7, "d266fa45f88f945b7a812101afca0360"
                           "00b69c0cacb223d9f4e9d4449d088016"),
    ], ids=["matchingGen", "matchingDefect", "matchingBiv"])
    def test_matching_stdout_digest(self, family, n, digest, capsys):
        code, out, _ = run_cli(
            ["poly", "--family", family, "--enum", str(n)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_path_1200_matchings(self, capsys):
        # 1,199 edges: deeper than the recursion limit at one frame per edge;
        # P_n has C(n - k, k) k-matchings
        code, out, err = run_cli(
            ["poly", "--family", "matchingGen", "--named", "path:1200"],
            capsys)
        assert code == 0
        assert err == ""
        assert json.loads(out)["coeffs"] == \
            [str(comb(1200 - k, k)) for k in range(601)]

    def test_recursion_error_exits_two(self, capsys, monkeypatch):
        def too_deep(family, g):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "family_polynomial", too_deep)
        code, out, err = run_cli(
            ["poly", "--family", "matchingGen", "--named", "path:4"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: maximum recursion depth exceeded\n"


class TestEnum:
    def test_eleven_graphs_on_four_vertices(self, capsys):
        code, out, _ = run_cli(["enum", "--n", "4"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 11

    def test_mk_filter(self, capsys):
        code, out, _ = run_cli(
            ["enum", "--n", "4", "--m", "3", "--k", "1"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(["enum", "--n", "12"], capsys)
        assert code == 2

    def test_lines_are_the_enumerated_graphs(self, capsys):
        for n in range(1, 8):
            code, out, _ = run_cli(["enum", "--n", str(n)], capsys)
            assert code == 0
            assert out.splitlines() == [graph_to_graph6(g)
                                        for g in enumerate_graphs(n)]

    def test_mk_listing_is_the_filtered_full_listing(self, capsys):
        _, out, _ = run_cli(["enum", "--n", "6"], capsys)
        full = out.splitlines()
        triples = [similarity_triple(graph_from_graph6(line)) for line in full]
        listed = 0
        for m in range(comb(6, 2) + 1):
            for k in range(1, 7):
                try:
                    triple = SimilarityTriple(6, m, k)
                except ValueError:
                    continue  # no graph has this (m, k)
                code, out, _ = run_cli(["enum", "--n", "6", "--m", str(m),
                                        "--k", str(k)], capsys)
                want = [line for line, t in zip(full, triples) if t == triple]
                assert code == 0 and want
                assert out.splitlines() == want
                listed += len(want)
        assert listed == len(full) == 156


class TestScripts:
    def run_script(self, name, *args):
        return subprocess.run([sys.executable, str(REPO / "scripts" / name),
                               *args], capture_output=True, text=True,
                              cwd=REPO)

    def test_find_cospectral_pairs(self):
        proc = self.run_script("find_cospectral_pairs.py", "--nmax", "6")
        assert proc.returncode == 0, proc.stderr
        assert "dp_compare(charA, charL, 6): incomparable" in \
            proc.stdout.splitlines()

    def test_density_demo(self):
        proc = self.run_script("density_demo.py", "--count", "5")
        assert proc.returncode == 0, proc.stderr


class TestRoots:
    def test_report_stream(self, capsys):
        code, out, _ = run_cli(
            ["roots", "--family", "matchingDefect", "--named", "cycle:4"],
            capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["report"]["real_rooted"] is True
        assert obj["report"]["degree"] == 4

    def test_zero_polynomial_noted(self, capsys):
        # an isolated vertex kills every edge cover
        code, out, _ = run_cli(
            ["roots", "--family", "edgeCover", "--named", "edgeless:2"],
            capsys)
        assert code == 0
        assert json.loads(out)["report"] is None


class TestTransformCommand:
    def test_chain_records(self, capsys):
        code, out, _ = run_cli(
            ["transform", "--family", "independence", "--named", "cycle:4",
             "--chain", "interleave,realify"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(l) for l in lines)
        assert first["transform"] == "interleave"
        assert second["transform"] == "realify"
        assert second["input"] == first["output"]

    def test_sign_parity_scale_chain_matches_composition(self, capsys):
        chain = ["transform", "--family", "charA", "--chain",
                 "negate,square,rouche"]
        # at n = 5, P(-X) of the monic degree-5 charA leads with -1
        for n in (4, 5):
            code, out, _ = run_cli(chain + ["--enum", str(n)], capsys)
            assert code == 0
            lines = []
            for g in enumerate_graphs(n):
                p = family_polynomial("charA", g)
                for name in ("negate", "square", "rouche"):
                    rec = named_transform_reference(name, p,
                                                    similarity_triple(g))
                    obj = json.loads(rec.to_json())
                    obj["graph6"] = graph_to_graph6(g)
                    obj["family"] = "charA"
                    lines.append(json.dumps(obj))
                    p = rec.output
            assert out == "".join(line + "\n" for line in lines)

    def test_unknown_transform(self, capsys):
        code, _, err = run_cli(
            ["transform", "--family", "independence", "--named", "cycle:4",
             "--chain", "fourier"], capsys)
        assert code == 2


class TestEquiv:
    def test_incomparable_at_six(self, capsys):
        code, out, _ = run_cli(
            ["equiv", "--left", "charA", "--right", "charL", "--nmax", "6"],
            capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["relation"] == "incomparable"
        assert len(obj["witnesses"]) == 2


class TestPrefactor:
    SPEC = json.dumps({"family_p": "vertexCover",
                       "family_q": "independence",
                       "prefactor": "X1^n", "subs": ["X1^-1"]})

    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(
            ["prefactor", "--spec", self.SPEC, "--enum", "4"], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    def test_fail_exit_one(self, capsys):
        bad = json.dumps({"family_p": "chromatic",
                          "family_q": "independence",
                          "prefactor": "1", "subs": ["X1"]})
        code, out, _ = run_cli(
            ["prefactor", "--spec", bad, "--enum", "3"], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "FAIL"

    def test_long_flat_sum(self, capsys):
        # 5,000 terms: a tree of them would be deeper than the recursion limit
        spec = json.dumps({"family_p": "charA", "family_q": "charA",
                           "prefactor": "0*X1 + " * 4999 + "1",
                           "subs": ["X1"]})
        code, out, _ = run_cli(
            ["prefactor", "--spec", spec, "--enum", "3"], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "reduction.json"
        path.write_text(self.SPEC)
        code, out, _ = run_cli(
            ["prefactor", "--spec-json", str(path), "--enum", "3"], capsys)
        assert code == 0


class TestDensity:
    def test_worked_target(self, capsys):
        code, out, _ = run_cli(
            ["density", "--target", "1/3,2/3", "--eps", "1/1000000000"],
            capsys)
        assert code == 0
        obj = json.loads(out)
        assert (obj["a"], obj["b"], obj["c"]) == (1, 2, 3)
        assert obj["triple"] == {"n": 12, "m": 18, "k": 6}
        assert float(obj["residual"]) <= 1e-9

    def test_malformed_target(self, capsys):
        code, _, err = run_cli(
            ["density", "--target", "nonsense", "--eps", "1/10"], capsys)
        assert code == 2


class TestScatter:
    def test_header_and_columns(self, capsys):
        code, out, _ = run_cli(
            ["scatter", "--family", "charA", "--named", "cycle:4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im,modulus,graph6,family"
        assert len(lines) == 5  # degree-4 polynomial: 4 roots w/ multiplicity
        assert all(line.endswith(",Cl,charA") for line in lines[1:])

    def test_root_finding_failure_exit_three(self, capsys, monkeypatch):
        def fail(p, tol=None):
            raise roots.RootFindingError("did not converge")

        monkeypatch.setattr(roots, "complex_roots", fail)
        code, _, err = run_cli(
            ["scatter", "--family", "charA", "--named", "cycle:4"], capsys)
        assert code == 3
        assert err == "error: did not converge\n"


def fail_after_first_result(monkeypatch, name):
    """Make cli.<name> raise RootFindingError once it has returned a result.

    Returns the list of results computed before the failure.
    """
    real = getattr(cli, name)
    computed = []

    def wrapper(*args, **kwargs):
        if computed:
            raise roots.RootFindingError("injected failure")
        out = real(*args, **kwargs)
        if out:
            computed.append(out)
        return out

    monkeypatch.setattr(cli, name, wrapper)
    return computed


class TestFailurePrintsNoPartialOutput:
    # a failure after the first computed line; every line is computed before
    # any is printed

    def test_roots_failure_prints_nothing(self, capsys, monkeypatch):
        computed = fail_after_first_result(monkeypatch, "root_report")
        code, out, err = run_cli(
            ["roots", "--family", "charL", "--enum", "6"], capsys)
        assert computed
        assert code == 3
        assert out == ""
        assert err == "error: injected failure\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_poly_failure_prints_nothing(self, fmt, capsys, monkeypatch):
        computed = fail_after_first_result(monkeypatch, "family_polynomial")
        code, out, err = run_cli(
            ["poly", "--family", "charA", "--format", fmt, "--enum", "4"],
            capsys)
        assert computed
        assert code == 3
        assert out == ""
        assert err == "error: injected failure\n"

    def test_transform_failure_prints_nothing(self, capsys, monkeypatch):
        computed = fail_after_first_result(monkeypatch,
                                           "apply_named_transform")
        code, out, err = run_cli(
            ["transform", "--family", "charA", "--chain", "negate",
             "--enum", "4"], capsys)
        assert computed
        assert code == 3
        assert out == ""
        assert err == "error: injected failure\n"

    def test_scatter_failure_prints_header_only(self, capsys, monkeypatch):
        computed = fail_after_first_result(monkeypatch, "scatter_rows")
        code, out, _ = run_cli(
            ["scatter", "--family", "edgeCover", "--enum", "4"], capsys)
        assert computed
        assert code == 3
        assert out == "re,im,modulus,graph6,family\n"


class TestStdinSource:
    def test_graph6_stdin(self):
        proc = subprocess.run(
            [sys.executable, "-m", "grpoly", "poly", "--family",
             "independence", "--graph6", "-"],
            input="Cr\nBw\n", capture_output=True, text=True)
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["coeffs"] == ["1", "4", "2"]


class TestGraph6File:
    def test_networkx_file(self, capsys, tmp_path):
        nx = pytest.importorskip("networkx")
        atlas = [nx.graph_atlas(i) for i in (7, 18, 52, 208, 700)]
        written, plain = tmp_path / "nx.g6", tmp_path / "plain.g6"
        with open(written, "wb") as fh:
            for h in atlas:
                nx.write_graph6(h, fh)  # each line begins with >>graph6<<
        plain.write_text(written.read_text(encoding="ascii")
                         .replace(">>graph6<<", ""), encoding="ascii")
        code, out, err = run_cli(["poly", "--family", "charA", "--graph6",
                                  str(written)], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == len(atlas)
        assert (code, out, err) == run_cli(
            ["poly", "--family", "charA", "--graph6", str(plain)], capsys)

    @pytest.mark.parametrize("line", [">>sparse6<<:An", ":An"])
    def test_sparse6_file_exits_two(self, line, capsys, tmp_path):
        path = tmp_path / "in.s6"
        path.write_text(line + "\n", encoding="ascii")
        code, out, err = run_cli(["poly", "--family", "charA", "--graph6",
                                  str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: non-printable graph6 byte")


class TestUsage:
    def test_missing_subcommand(self):
        proc = subprocess.run([sys.executable, "-m", "grpoly"],
                              capture_output=True, text=True)
        assert proc.returncode == 2

    def test_unknown_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "grpoly", "enum", "--order", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    @pytest.mark.parametrize("arg", ["prufer:-1", "prufer:1-", "prufer:,1",
                                     "prufer:0--1"])
    def test_empty_prufer_symbol_rejected(self, arg, capsys):
        code, out, err = run_cli(["poly", "--family", "charA",
                                  "--named", arg], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: empty Prüfer symbol in {arg!r}\n")

    def test_prufer_separators(self, capsys):
        def char_a(named):
            return run_cli(["poly", "--family", "charA", "--named", named],
                           capsys)

        assert char_a("prufer:2,2,2") == char_a("star:4")  # K_{1,4}
        assert char_a("prufer:0-1-1-3") == char_a("prufer:0,1-1,3")
        assert char_a("prufer:0-1-1-3")[0] == 0

    def test_two_sources_rejected(self):
        proc = subprocess.run(
            [sys.executable, "-m", "grpoly", "poly", "--family", "charA",
             "--enum", "3", "--named", "cycle:4"],
            capture_output=True, text=True)
        assert proc.returncode == 2


class TestMalformedInput:
    NESTED = "(" * 3000 + "X1" + ")" * 3000

    @pytest.mark.parametrize("argv", [
        ["prefactor", "--spec", "{}", "--enum", "3"],
        ["prefactor", "--spec", json.dumps(
            {"family_p": "nope", "family_q": "independence",
             "prefactor": "1", "subs": ["X1"]}), "--enum", "3"],
        ["prefactor", "--spec", "[1]", "--enum", "3"],
        ["prefactor", "--spec", json.dumps(
            {"family_p": "vertexCover", "family_q": "independence",
             "prefactor": NESTED, "subs": ["X1^-1"]}), "--enum", "3"],
        ["density", "--target", "1/0,1", "--eps", "1/10"],
        ["density", "--target", "1/3,2/3", "--eps", "1/0"],
        # sizes past sys.maxsize; cycle, path and star build edge lists first
        ["poly", "--family", "charA", "--named",
         "complete:99999999999999999999"],
        ["poly", "--family", "charA", "--named",
         "edgeless:99999999999999999999"],
    ], ids=["empty-spec", "unknown-family", "spec-not-object",
            "deep-prefactor", "target-zero-denominator",
            "eps-zero-denominator", "huge-complete", "huge-edgeless"])
    def test_exits_two_with_one_error_line(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert len([line for line in err.splitlines()
                    if line.startswith("error:")]) == 1


class TestDeterminism:
    def test_hash_seed_does_not_change_output(self):
        # iteration over a set of strings follows the hash seed
        commands = [["poly", "--family", "charA", "--enum", "5"],
                    ["equiv", "--left", "charA", "--right", "charL",
                     "--nmax", "5"]]
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            blob = b""
            for cmd in commands:
                proc = subprocess.run([sys.executable, "-m", "grpoly"] + cmd,
                                      capture_output=True, env=env)
                assert proc.returncode == 0, proc.stderr
                blob += proc.stdout
            outputs.append(blob)
        assert outputs[0] == outputs[1]


# -- byte identity --------------------------------------------------------------

UNIVARIATE = tuple(f for f in FAMILY_NAMES if FAMILY_ARITY[f] == 1)
CHAINS = ("negate", "square", "interleave", "interleave,deinterleave",
          "interleave,realify", "rootencode", "densify",
          "densify:real-positive", "rouche", "scale:2",
          "negate,square,rouche")
PREFACTOR_SPECS = (
    ("vertexCover", "independence", "X1^n", "X1^-1"),
    ("chromatic", "independence", "1", "X1"),  # FAIL
    ("matchingDefect", "matchingGen", "X1^n", "0 - X1^-2"),
    ("vertexCover", "independence", "X1^(0-n)", "X1^-1"),  # exponent < 0
)


def cli_matrix() -> dict[str, list[list[str]]]:
    """The pinned commands by subcommand: every family on small enumerations
    and on the edgeless graphs (a constant and, for some families, the zero
    polynomial), transform chains, reductions, witnesses and errors."""
    sources = (["--enum", "5"], ["--named", "edgeless:1"],
               ["--named", "edgeless:2"])
    poly, roots_, scatter = [], [], []
    for fam in FAMILY_NAMES:
        for src in sources:
            poly.append(["poly", "--family", fam, *src])
            poly.append(["poly", "--family", fam, "--format", "csv", *src])
            roots_.append(["roots", "--family", fam, *src])
            small = ["--enum", "4"] if src[0] == "--enum" else src
            scatter.append(["scatter", "--family", fam, *small])
    poly += [["poly", "--family", "charA", "--named", "prufer:0-1-1-3"],
             ["poly", "--family", "charA", "--named", "prufer:2,2,2"],
             ["poly", "--family", "nope", "--enum", "3"],
             ["poly", "--family", "charA", "--named", "cycle:2"]]
    roots_.append(["roots", "--family", "tutte", "--enum", "3"])
    return {
        "enum": [["enum", "--n", str(n)] for n in range(1, 9)]
        + [["enum", "--n", "6", "--m", "7", "--k", "1"]],
        "poly": poly,
        "roots": roots_,
        "scatter": scatter,
        "transform": [["transform", "--family", fam, "--chain", chain,
                       "--enum", "4"]
                      for chain in CHAINS for fam in UNIVARIATE]
        # the edgeless graph of --enum 4 stops densify at its first graph
        + [["transform", "--family", fam, "--chain", chain,
            "--named", "path:4"]
           for chain in ("densify", "densify:real-positive")
           for fam in UNIVARIATE],
        "equiv": [["equiv", "--left", a, "--right", b, "--nmax", "6"]
                  for a, b in (("charA", "charL"),
                               ("independence", "vertexCover"),
                               ("tutte", "chromatic"),
                               ("matchingDefect", "matchingGen"))],
        "prefactor": [["prefactor", "--spec", json.dumps(
            {"family_p": p, "family_q": q, "prefactor": pre, "subs": [sub]}),
            "--enum", "5"] for p, q, pre, sub in PREFACTOR_SPECS],
        "density": [["density", "--target", "1/3,2/3",
                     "--eps", "1/1000000000"],
                    ["density", "--target", "3/2,5/4", "--eps", "1/1000"]],
    }


class TestByteIdentity:
    """One sha256 per subcommand over (argv, exit code, stdout, first stderr
    line) of each command in ``cli_matrix``.  The first stderr line is the
    ``error:`` line; argparse's usage lines after it wrap with the terminal
    width, so they stay out."""

    DIGESTS = {
        "enum": ("382756c763248e3262c302a055edea26"
                 "87d9e289cb204cd77ef2808287cf60a9"),
        "poly": ("5b645d6547000fb5d5ac5095181d2032"
                 "a906ca92ba38f304b0381179ad9dbd32"),
        "roots": ("4dc4fa8e991c7d4e4b47a99e53906228"
                  "9b83a8557b658e19a7c7b44b34ac48a5"),
        "scatter": ("225a80a8722039d600418e8f36a01948"
                    "6138d12c37a17424cca1803f6f27fe77"),
        "transform": ("7f6be2d32328e1b35b5da7ec0ad7c43e"
                      "7c1695b6966a6a1e6513c5c3a3914e4d"),
        "equiv": ("797a70bdcdcc3d22ff1d7a394f86770c"
                  "593baed66b3d82fc0c534973bc56c6c0"),
        "prefactor": ("b4e19f70d7ff5eb4e9fe1697171521fb"
                      "702469dc3be6f16b102cb4963e4d7f31"),
        "density": ("1675b33beca93c249369f3855ccca8b2"
                    "0af7cedf3e9645b6bac48211f0de0f50"),
    }

    def test_matrix_size(self):
        assert sum(map(len, cli_matrix().values())) == 323

    @pytest.mark.parametrize("command", list(DIGESTS))
    def test_output_digest(self, command, capsys):
        h = hashlib.sha256()
        for argv in cli_matrix()[command]:
            code, out, err = run_cli(argv, capsys)
            h.update(json.dumps([argv, code, out, err.partition("\n")[0]])
                     .encode())
        assert h.hexdigest() == self.DIGESTS[command]


class TestScanByteIdentity:
    """The benchmark's census scans over n <= 7, one sha256 each, taken
    before the corpus and the catalog's kernels were shared between scans:
    (argv, exit code, stdout) of each ``equiv`` command, and the
    (class, graph6 block) rows of ``find_collisions("charA", 7)``."""

    EQUIV = {
        ("charA", "charL"): ("a643a0517289c4f1307e53277fbf32ad"
                             "dc2cdad65d89fbfd4b810b8951bd85c9"),
        ("independence", "vertexCover"): ("f49854bda64e91398342a90b7dcd796f"
                                          "2743fdfef272c612d6ee959d7fe22dff"),
        ("matchingDefect", "matchingGen"): ("038640457f7e913e6486ae9ae7bf6d8b"
                                            "a2192647e28db6149e29001863c7c279"),
        ("chromatic", "tutte"): ("95d43ab44d3aa28d8cad425718d8377d"
                                 "e1f4c6c8c112fd89d5cb9b632832d4c4"),
    }
    COLLISIONS = ("5bcd6a041648646e7e524624bd7b0b0b"
                  "a48b1b79a47fd688649043b2af2a179b")

    @pytest.mark.parametrize("left, right", list(EQUIV))
    def test_equiv_nmax_seven(self, left, right, capsys):
        argv = ["equiv", "--left", left, "--right", right, "--nmax", "7"]
        code, out, _ = run_cli(argv, capsys)
        digest = hashlib.sha256(json.dumps([argv, code, out]).encode())
        assert digest.hexdigest() == self.EQUIV[left, right]

    def test_char_a_collisions_nmax_seven(self):
        rows = [[[cls.triple.n, cls.triple.m, cls.triple.k],
                 [graph_to_graph6(g) for g in block]]
                for cls, block in find_collisions("charA", 7)]
        assert len(rows) == 39
        digest = hashlib.sha256(json.dumps(rows).encode())
        assert digest.hexdigest() == self.COLLISIONS
