"""Command-line interface: output formats, exit codes, and env overrides."""

import json
import subprocess
import sys

import pytest

from cliffcent.blades import blade_from_indices, make_signature
from cliffcent.centralizers import CentralizerKind, brute_force_centralizer
from cliffcent.cli import (
    DEFAULT_SWEEP_BOUND,
    SWEEP_BOUND_ENV,
    build_parser,
    main,
)
from cliffcent.subspaces import subspace_from_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCentralizerCommand:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "centralizer", "--signature", "0,0,2",
                             "--subspace", "grade:1", "--kind", "plain")
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "Cl(0,0,2) plain centralizer of grade:1",
            "e[], e[1,2]",
            "closed form: agrees",
        ]

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "centralizer", "--signature", "1,0,1",
                           "--subspace", "grade:2", "--kind", "plain",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["signature"] == {"p": 1, "q": 0, "r": 1}
        assert payload["kind"] == "plain"
        assert payload["subspace"] == "grade:2"
        assert payload["match"] is True
        sig = make_signature(1, 0, 1)
        rebuilt = frozenset(blade_from_indices(ix) for ix in payload["blades"])
        want = brute_force_centralizer(sig, subspace_from_text(sig, "grade:2"),
                                       CentralizerKind.PLAIN)
        assert rebuilt == want.blades

    def test_formula_free_target_is_reported(self, capsys):
        code, out, _ = run(capsys, "centralizer", "--signature", "1,0,2",
                           "--subspace", "lambda:1", "--kind", "plain")
        assert code == 0
        assert "closed form: not available for this target" in out

    def test_bad_signature_exits_1(self, capsys):
        code, out, err = run(capsys, "centralizer", "--signature", "1,2",
                             "--subspace", "grade:1", "--kind", "plain")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_bad_subspace_exits_1(self, capsys):
        code, _, err = run(capsys, "centralizer", "--signature", "1,1,0",
                           "--subspace", "grade:x", "--kind", "plain")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("pqr,spec,blade", [
        ("2,0,0", "grade:1+grade:1", "e[1]"),
        ("1,0,1", "lambda:1+grade:1", "e[2]"),
    ])
    def test_overlapping_direct_sum_exits_1(self, capsys, pqr, spec, blade):
        code, out, err = run(capsys, "centralizer", "--signature", pqr,
                             "--subspace", spec, "--kind", "plain")
        assert code == 1
        assert out == ""
        assert err == ("cliffcent: error: direct_sum operands overlap "
                       f"(e.g. {blade})\n")

    def test_disjoint_direct_sum_exits_0(self, capsys):
        # in Cl(2,0,0) lambda:1 is empty, so it cannot meet grade:1
        code, out, err = run(capsys, "centralizer", "--signature", "2,0,0",
                             "--subspace", "lambda:1+grade:1", "--kind", "plain")
        assert code == 0
        assert err == ""
        assert out.splitlines()[0] == ("Cl(2,0,0) plain centralizer of "
                                       "lambda:1+grade:1")

    def test_bad_kind_exits_1(self, capsys):
        code, _, err = run(capsys, "centralizer", "--signature", "1,1,0",
                           "--subspace", "grade:1", "--kind", "sideways")
        assert code == 1
        assert "error" in err


class TestCenterCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "center", "--signature", "3,0,0")
        assert code == 0
        assert out.splitlines() == [
            "center of Cl(3,0,0)",
            "e[], e[1,2,3]",
            "closed form: agrees",
        ]

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "center", "--signature", "0,0,2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["subspace"] == "all"
        assert payload["blades"] == [[], [1, 2]]
        assert payload["match"] is True


class TestVerifyCommand:
    def test_small_sweep_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-dim", "2",
                           "--targets", "grades")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "PASS: 72 cases, 0 mismatches"
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert len(lines) == 73

    def test_small_sweep_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-dim", "2",
                           "--targets", "grades", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 72
        assert all(r["match"] for r in reports)

    def test_kind_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-dim", "1",
                           "--targets", "grades", "--kinds", "plain", "hat")
        assert code == 0
        assert out.splitlines()[-1] == "PASS: 12 cases, 0 mismatches"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "--max-dim", "2",
                          "--targets", "qtypes")
        _, second, _ = run(capsys, "verify", "--max-dim", "2",
                           "--targets", "qtypes")
        assert first == second

    @pytest.mark.parametrize("bad", ["0", "11", "-3"])
    def test_out_of_range_bound_exits_1(self, capsys, bad):
        code, _, err = run(capsys, "verify", "--max-dim", bad)
        assert code == 1
        assert "--max-dim" in err

    def test_env_var_sets_default_bound(self, monkeypatch):
        monkeypatch.setenv(SWEEP_BOUND_ENV, "3")
        args = build_parser().parse_args(["verify"])
        assert args.max_dim == 3

    def test_garbage_env_var_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv(SWEEP_BOUND_ENV, "many")
        code, out, err = run(capsys, "verify")
        assert code == 1
        assert out == ""
        assert "--max-dim" in err

    def test_default_bound_without_env(self, monkeypatch):
        monkeypatch.delenv(SWEEP_BOUND_ENV, raising=False)
        args = build_parser().parse_args(["verify"])
        assert args.max_dim == DEFAULT_SWEEP_BOUND


class TestTable1Command:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "table1", "--signature", "1,0,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "centralizer reductions in Cl(1,0,1)"
        assert len(lines) == 15
        assert all(line.endswith("| MATCH") for line in lines[1:])
        assert all(line.count("|") == 3 for line in lines[1:])

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "table1", "--signature", "0,0,1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert len(payload["rows"]) == 14
        assert all(row["match"] for row in payload["rows"])


class TestParserBehaviour:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "centralizer" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cliffcent", "center",
             "--signature", "2,0,0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "center of Cl(2,0,0)" in proc.stdout
