"""Command-line interface: output formats, exit codes, and env overrides."""

import json
import os
import subprocess
import sys

import pytest

from cliffcent import centralizers, cli
from cliffcent.blades import (
    blade_from_indices,
    format_blade,
    index_lists,
    make_signature,
)
from cliffcent.centralizers import (
    CentralizerKind,
    brute_force_centralizer,
    sweep_verify,
    table1_rows,
    verify_case,
)
from cliffcent.cli import (
    DEFAULT_SWEEP_BOUND,
    SWEEP_BOUND_ENV,
    build_parser,
    main,
)
from cliffcent.subspaces import (
    Subspace,
    full_algebra,
    parse_subspace_spec,
    subspace_from_text,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("cliffcent: error: ")


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

    def test_non_ascii_int_grammar_exits_1(self, capsys):
        code, out, err = run(capsys, "centralizer", "--signature", "2,0,0",
                             "--subspace", "grade:1_0", "--kind", "plain")
        assert code == 1
        assert out == ""
        assert err == "cliffcent: error: bad grade '1_0' at position 0\n"

    def test_internal_disagreement_is_not_bad_input(self, monkeypatch):
        # only ValueError means bad input; a table entry whose terms overlap
        # (Lambda^(0) lies inside Lambda) must surface as the RuntimeError it is
        overlapping = ((centralizers._L0, centralizers._L),) * 2
        for table, key, argv in [
                (centralizers._QT_PAIR_TABLE, ("plain", (1, 3)),
                 ["centralizer", "--signature", "2,0,0", "--subspace", "qt:13",
                  "--kind", "plain"]),
                (centralizers._SMALL_GRADE, ("plain", 1),
                 ["verify", "--max-dim", "2"])]:
            with monkeypatch.context() as patch:
                patch.setitem(table, key, overlapping)
                with pytest.raises(RuntimeError, match=r"overlap at e\[\]"):
                    main(argv)

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

    def test_bad_signature_exits_1(self, capsys):
        assert_one_error_line(*run(capsys, "center", "--signature", "1,2"))

    def test_mismatch_is_reported(self, capsys, monkeypatch):
        # the center of Cl(2,0,0) is e[]; the patched form claims everything
        monkeypatch.setattr(centralizers, "center_closed_form", full_algebra)
        code, out, _ = run(capsys, "center", "--signature", "2,0,0")
        assert code == 2
        assert out.splitlines()[-2:] == [
            "closed form: MISMATCH",
            "  closed_form_only_closed: e[1], e[2], e[1,2]",
        ]
        code, out, _ = run(capsys, "center", "--signature", "2,0,0",
                           "--format", "json")
        assert code == 2
        assert json.loads(out)["match"] is False

    def test_centralizer_of_all_reports_the_same_mismatch(self, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(centralizers, "center_closed_form", full_algebra)
        code, out, _ = run(capsys, "centralizer", "--signature", "2,0,0",
                           "--subspace", "all", "--kind", "plain")
        assert code == 2
        assert out.splitlines() == [
            "Cl(2,0,0) plain centralizer of all",
            "e[]",
            "closed form: MISMATCH",
            "  closed_form_only_closed: e[1], e[2], e[1,2]",
        ]

    def test_center_is_the_plain_centralizer_of_all(self, capsys):
        sigs = centralizers.all_signatures(6)
        assert len(sigs) == 83
        for sig in sigs + [make_signature(8, 4, 4), make_signature(0, 0, 16)]:
            pqr = f"{sig.p},{sig.q},{sig.r}"
            code, center, _ = run(capsys, "center", "--signature", pqr,
                                  "--format", "json")
            assert code == 0, sig
            code, plain, _ = run(capsys, "centralizer", "--signature", pqr,
                                 "--subspace", "all", "--kind", "plain",
                                 "--format", "json")
            assert code == 0, sig
            assert json.loads(center)["blades"] == json.loads(plain)["blades"], sig


class TestVerifyCommand:
    def test_small_sweep_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-dim", "2",
                           "--targets", "grades")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "PASS: 72 cases, 0 mismatches"
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert len(lines) == 73

    def test_mismatch_text_names_the_blades(self, capsys, monkeypatch):
        original = centralizers.closed_form_grade

        def wrong_in_cl200(sig, m, kind):
            if (sig.p, sig.q, sig.r, m) == (2, 0, 0, 1):
                return full_algebra(sig)
            return original(sig, m, kind)

        monkeypatch.setattr(centralizers, "closed_form_grade", wrong_in_cl200)
        code, out, _ = run(capsys, "verify", "--max-dim", "2",
                           "--targets", "grades", "--kinds", "plain")
        assert code == 2
        lines = out.splitlines()
        at = lines.index("MISMATCH Cl(2,0,0) plain grade:1 (1 blades)")
        assert lines[at + 1] == "  closed_form_only_closed: e[1], e[2], e[1,2]"
        assert lines[at + 2].startswith("ok ")
        assert lines[-1] == "FAIL: 24 cases, 1 mismatches"
        assert len(lines) == 26

    def test_oracle_mismatch_text_names_the_blades(self, capsys, monkeypatch):
        original = centralizers.nullspace_centralizer_oracle

        def drops_its_last_blade(sig, s, kind):
            dim, basis = original(sig, s, kind)
            if (sig.p, sig.q, sig.r) == (2, 0, 0):
                return dim - 1, basis[:-1]
            return dim, basis

        monkeypatch.setattr(centralizers, "nullspace_centralizer_oracle",
                            drops_its_last_blade)
        code, out, _ = run(capsys, "verify", "--max-dim", "2",
                           "--targets", "grades", "--kinds", "plain")
        assert code == 2
        lines = out.splitlines()
        mismatches = [at for at, line in enumerate(lines)
                      if line.startswith("MISMATCH")]
        assert [(lines[at], lines[at + 1]) for at in mismatches] == [
            ("MISMATCH Cl(2,0,0) plain grade:0 (4 blades)",
             "  nullspace_only_brute: e[1,2]"),
            ("MISMATCH Cl(2,0,0) plain grade:1 (1 blades)",
             "  nullspace_only_brute: e[]"),
            ("MISMATCH Cl(2,0,0) plain grade:2 (2 blades)",
             "  nullspace_only_brute: e[1,2]"),
        ]
        assert lines[-1] == "FAIL: 24 cases, 3 mismatches"
        assert len(lines) == 28

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

    # a digit separator, a full-width digit, a sign, a space
    @pytest.mark.parametrize("bad", ["0_2", "\uff13", "+3", " 3"])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_bound_must_be_an_ascii_integer(self, capsys, monkeypatch,
                                            from_env, bad):
        if from_env:
            monkeypatch.setenv(SWEEP_BOUND_ENV, bad)
            code, out, err = run(capsys, "verify")
        else:
            code, out, err = run(capsys, "verify", "--max-dim", bad)
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "--max-dim" in errors[0]
        assert "parse_int" not in err

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

    @pytest.mark.parametrize("bad", ["0", "11"])
    def test_out_of_range_env_var_exits_1(self, capsys, monkeypatch, bad):
        monkeypatch.setenv(SWEEP_BOUND_ENV, bad)
        code, out, err = run(capsys, "verify")
        assert_one_error_line(code, out, err)
        assert "--max-dim" in err

    def test_default_bound_without_env(self, monkeypatch):
        monkeypatch.delenv(SWEEP_BOUND_ENV, raising=False)
        args = build_parser().parse_args(["verify"])
        assert args.max_dim == DEFAULT_SWEEP_BOUND


def wrong_grade_1_in_cl200(monkeypatch):
    """Patch ``closed_form_grade`` to answer the whole algebra for grade 1 of
    Cl(2,0,0), as ``test_mismatch_text_names_the_blades`` does."""
    original = centralizers.closed_form_grade

    def wrong_in_cl200(sig, m, kind):
        if (sig.p, sig.q, sig.r, m) == (2, 0, 0, 1):
            return full_algebra(sig)
        return original(sig, m, kind)

    monkeypatch.setattr(centralizers, "closed_form_grade", wrong_in_cl200)


class TestPatchingAgainstWarmCaches:
    """The per-process caches sit below every function the tests patch, so
    a patch made after a sweep has filled them still takes effect."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_pair_table_mismatch_is_reported(self, capsys, monkeypatch, warm):
        if warm:
            assert run(capsys, "verify", "--max-dim", "2")[0] == 0
        original = centralizers._explicit_qt_pair
        monkeypatch.setattr(  # the table with its pseudoscalar flipped
            centralizers, "_explicit_qt_pair", lambda sig, pair, kind: Subspace(
                sig, original(sig, pair, kind).mask ^ 1 << sig.full_mask))
        code, out, err = run(capsys, "verify", "--max-dim", "2", "--format", "json")
        assert (code, err) == (2, "")
        records = json.loads(out)
        # 3 signatures with n = 1 and 6 with n = 2, 2 or 3 grades, 4 types,
        # 6 pairs, 3 kinds
        assert len(records) == (3 * 12 + 6 * 13) * 3
        pairs = {"qt:01", "qt:02", "qt:03", "qt:12", "qt:13", "qt:23"}
        wrong = [r for r in records if not r["match"]]
        assert len(wrong) == 9 * 6 * 3
        assert all(r["target"] in pairs for r in wrong)
        for record in wrong:
            assert record["matches"] == {"closed_form": True, "qt_pair": False,
                                         "nullspace": True}
            top = format_blade(make_signature(**record["signature"]).full_mask)
            assert (record["diff"]["qt_pair_only_brute"]
                    + record["diff"]["qt_pair_only_closed"]) == [top]

    def test_mismatch_after_a_sweep(self, capsys, monkeypatch):
        assert run(capsys, "verify", "--max-dim", "2")[0] == 0
        wrong_grade_1_in_cl200(monkeypatch)
        code, out, _ = run(capsys, "verify", "--max-dim", "2",
                           "--targets", "grades", "--kinds", "plain")
        assert code == 2
        lines = out.splitlines()
        at = lines.index("MISMATCH Cl(2,0,0) plain grade:1 (1 blades)")
        assert lines[at + 1] == "  closed_form_only_closed: e[1], e[2], e[1,2]"
        assert lines[at + 2].startswith("ok ")
        assert lines[-1] == "FAIL: 24 cases, 1 mismatches"
        assert len(lines) == 26

    def test_mismatch_keeps_the_closed_blades_in_json(self, capsys, monkeypatch):
        assert run(capsys, "verify", "--max-dim", "2")[0] == 0
        wrong_grade_1_in_cl200(monkeypatch)
        code, out, _ = run(capsys, "verify", "--max-dim", "2",
                           "--targets", "grades", "--kinds", "plain",
                           "--format", "json")
        assert code == 2
        records = json.loads(out)
        wrong = [r for r in records if not r["match"]]
        assert [(r["signature"], r["target"]) for r in wrong] == [
            ({"p": 2, "q": 0, "r": 0}, "grade:1")]
        assert wrong[0]["brute_blades"] == [[]]
        assert wrong[0]["closed_blades"] == [[], [1], [2], [1, 2]]
        assert all(r["closed_blades"] == r["brute_blades"]
                   for r in records if r["match"])


class TestSignatureArgument:
    # a digit separator, a full-width digit, a sign, a space
    @pytest.mark.parametrize("bad", ["1_0,0,0", "\uff11,0,0", "+1,0,0", "1, 0,0"])
    @pytest.mark.parametrize("command", [
        ["center"], ["table1"],
        ["centralizer", "--subspace", "grade:1", "--kind", "plain"]])
    def test_parts_must_be_ascii_integers(self, capsys, command, bad):
        code, out, err = run(capsys, *command, "--signature", bad)
        assert_one_error_line(code, out, err)
        assert err == ("cliffcent: error: signature must be three integers "
                       f"— got {bad!r}\n")


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

    def test_bad_signature_exits_1(self, capsys):
        assert_one_error_line(*run(capsys, "table1", "--signature", "9,9,9"))


# Both bytes of the mask, an empty high byte, and the center [[]] of Cl(10,0,0).
JSON_SIGNATURES = ["10,0,0", "0,0,1", "1,0,8", "3,2,6"]


def signature_json(sig):
    return {"p": sig.p, "q": sig.q, "r": sig.r}


def assert_same_text(out, want):
    """``out == want``.  On a difference, fail with the first differing
    offset and about 80 characters on each side of it: pytest's own diff
    of two long one-line outputs can take minutes."""
    if out == want:
        return
    at = len(os.path.commonprefix([out, want]))
    lo, hi = max(at - 80, 0), at + 80
    pytest.fail(f"output differs at offset {at} (lengths {len(out)} and "
                f"{len(want)})\n got: {out[lo:hi]!r}\nwant: {want[lo:hi]!r}",
                pytrace=False)


class TestJsonBytes:
    """``--format json`` prints exactly ``json.dumps`` of the payload built
    from ``index_lists`` and ``Table1Row.to_json_dict``."""

    @pytest.mark.parametrize("text", [*JSON_SIGNATURES, "1,0,15"])
    def test_center(self, capsys, text):
        sig = make_signature(*map(int, text.split(",")))
        center = brute_force_centralizer(sig, full_algebra(sig),
                                         CentralizerKind.PLAIN)
        want = {"signature": signature_json(sig), "kind": "plain",
                "subspace": "all", "blades": index_lists(center.sorted_blades()),
                "match": True}
        code, out, _ = run(capsys, "center", "--signature", text,
                           "--format", "json")
        assert code == 0
        assert_same_text(out, json.dumps(want) + "\n")

    @pytest.mark.parametrize("text", JSON_SIGNATURES)
    @pytest.mark.parametrize("spec, kind", [("grade:1", "hat"), ("even", "plain"),
                                            ("qt:2", "tilde")])
    def test_centralizer(self, capsys, text, spec, kind):
        sig = make_signature(*map(int, text.split(",")))
        report = verify_case(sig, parse_subspace_spec(spec),
                             CentralizerKind(kind), with_nullspace=False)
        want = {"signature": signature_json(sig), "kind": kind,
                "subspace": spec, "blades": index_lists(report.brute_blades),
                "match": report.match}
        code, out, _ = run(capsys, "centralizer", "--signature", text,
                           "--subspace", spec, "--kind", kind, "--format", "json")
        assert code == 0
        assert_same_text(out, json.dumps(want) + "\n")

    @pytest.mark.parametrize("text", JSON_SIGNATURES)
    def test_table1(self, capsys, text):
        sig = make_signature(*map(int, text.split(",")))
        rows = table1_rows(sig)
        want = {"signature": signature_json(sig),
                "rows": [row.to_json_dict() for row in rows],
                "match": all(row.match for row in rows)}
        code, out, _ = run(capsys, "table1", "--signature", text,
                           "--format", "json")
        assert code == 0
        assert_same_text(out, json.dumps(want) + "\n")


    @pytest.mark.parametrize("options, targets, kinds", [
        (("--targets", "all"), "all", None),
        (("--targets", "grades", "--kinds", "hat"), "grades",
         (CentralizerKind.GRADE_TWISTED,)),
    ], ids=["all", "grades-hat"])
    def test_verify_streams_one_dumps_of_the_list(self, capsys, monkeypatch,
                                                  options, targets, kinds):
        monkeypatch.setattr(centralizers.time, "perf_counter", lambda: 0.0)
        want = json.dumps([r.to_json_dict()
                           for r in sweep_verify(3, targets=targets, kinds=kinds)])
        code, out, _ = run(capsys, "verify", "--max-dim", "3", *options,
                           "--format", "json")
        assert code == 0
        assert_same_text(out, want + "\n")


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

    @pytest.mark.parametrize("argv", [
        ["table1", "--signature", "2,0,1", "--format", "json"],
        ["verify", "--max-dim", "3"],
        ["center", "--signature", "3,0,1"],
        ["verify", "--max-dim", "3", "--format", "json"],
    ], ids=["table1-json", "verify-text", "center-text", "verify-json"])
    def test_closed_stdout_exits_1_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "cliffcent", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


# Run in a fresh process: each step's command, exit code and whether numpy
# is loaded after it.  ``-m cliffcent --help`` runs ``__main__.py`` too.
NUMPY_STEPS = """
import contextlib, io, json, runpy, sys
import cliffcent, cliffcent.cli
steps = [["import cliffcent, cliffcent.cli", None, "numpy" in sys.modules]]
for argv in (["-m", "cliffcent", "--help"], ["frobnicate"],
             ["center", "--signature", "17,0,0"], ["center", "--signature", "2,0,1"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if argv[0] == "-m":
            sys.argv = ["cliffcent", *argv[2:]]
            try:
                runpy.run_module("cliffcent", run_name="__main__")
            except SystemExit as exc:
                code = exc.code
        else:
            code = cliffcent.cli.main(argv)
    steps.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_numpy_loads_with_the_first_route():
    """Importing the package, ``--help``, a usage error and an input outside
    the bound load no numpy; the first route run loads it."""
    package_parent = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_STEPS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import cliffcent, cliffcent.cli", None, False],
        ["-m cliffcent --help", 0, False],
        ["frobnicate", 1, False],
        ["center --signature 17,0,0", 1, False],
        ["center --signature 2,0,1", 0, True],
    ]


class TestParserReuse:
    """``main`` builds its parser once per process and reads
    CLIFFCENT_MAX_DIM each time it parses a command line."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        builds = []

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        assert run(capsys, "center", "--signature", "1,0,0")[0] == 0
        assert run(capsys, "table1", "--signature", "1,0,0")[0] == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("command", [
        [], ["centralizer"], ["center"], ["verify"], ["table1"]])
    def test_help_is_the_same_on_every_call(self, capsys, command):
        first = run(capsys, *command, "--help")
        assert first[0] == 0
        assert first[1].startswith("usage: cliffcent")
        assert run(capsys, *command, "--help") == first

    def test_env_bound_is_read_on_every_call(self, capsys, monkeypatch):
        argv = ("verify", "--targets", "grades", "--kinds", "plain")
        monkeypatch.setenv(SWEEP_BOUND_ENV, "1")
        code, out, _ = run(capsys, *argv)
        assert (code, out.splitlines()[-1]) == (0, "PASS: 6 cases, 0 mismatches")
        monkeypatch.setenv(SWEEP_BOUND_ENV, "2")
        code, out, _ = run(capsys, *argv)
        assert (code, out.splitlines()[-1]) == (0, "PASS: 24 cases, 0 mismatches")
        monkeypatch.delenv(SWEEP_BOUND_ENV)
        assert cli._parser().parse_args(["verify"]).max_dim == DEFAULT_SWEEP_BOUND

    def test_bad_env_bound_after_a_good_one_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv(SWEEP_BOUND_ENV, "1")
        assert run(capsys, "verify", "--targets", "grades")[0] == 0
        monkeypatch.setenv(SWEEP_BOUND_ENV, "many")
        code, out, err = run(capsys, "verify", "--targets", "grades")
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "--max-dim" in errors[0]
