import json
import os
import subprocess
import sys

import pytest

from grpoly import cli, roots
from grpoly.cli import main


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
    ], ids=["empty-spec", "unknown-family", "spec-not-object",
            "deep-prefactor", "target-zero-denominator",
            "eps-zero-denominator"])
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
