"""Command-line interface: exit codes, documents, and determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import jacobi_violating
from zhuforge import cli, complete_table, quotient, reduction, zhu
from zhuforge.cli import main
from zhuforge.documents import singular_document

LATTICE = "lattice_rank1_norm4"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_bundled_presentations(capsys):
    for name in ("virasoro_c_minus2", "w3_c_minus2", LATTICE):
        code, out, _ = run(capsys, "validate", "--input", name)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True and doc["issues"] == []


def test_validate_reports_issues_with_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "generators": [{"symbol": "w", "weight": 2}],
        "relations": [{"i": 0, "j": 0, "k": 2, "value": []}],
    }))
    code, out, _ = run(capsys, "validate", "--input", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False and doc["issues"]
    # Non-validate commands refuse to run on an invalid presentation.
    code, _, err = run(capsys, "complete", "--input", str(bad))
    assert code == 1 and "invalid presentation" in err


def test_unknown_input_exits_3(capsys):
    code, _, err = run(capsys, "complete", "--input", "no_such_thing")
    assert code == 3
    assert "no such file or bundled presentation" in err


def test_unparseable_file_exits_3(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "validate", "--input", str(bad))
    assert code == 3 and "error" in err


@pytest.mark.parametrize("argv", [
    [],
    ["quotient"],
    ["quotient", "--input", LATTICE, "--quotient-bound", "x"],
    ["zhu", "--input", LATTICE, "--seeds", "all"],
    ["frobnicate", "--input", LATTICE],
    # The rewrite order is fixed: the flag that chose it is gone.
    ["complete", "--input", LATTICE, "--strategy", "leftmost"],
])
def test_usage_errors_exit_3(capsys, argv):
    # Not 2: that code means a bound stopped the computation.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 3
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [
    ("--mode-depth", "-1"),
    ("--membership-bound", "-2"),
    ("--quotient-bound", "0"),
    ("--quotient-bound", "-1"),
])
def test_bound_flags_below_one_exit_3(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["quotient", "--input", LATTICE, flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 3
    assert "error: argument %s: must be a positive integer" % flag in err
    assert "Traceback" not in err


def test_unwritable_output_exits_3(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "validate", "--input", LATTICE,
                         "--output", str(target))
    assert code == 3 and out == ""
    assert err.startswith("error: cannot write %s" % target)
    assert not target.parent.exists()


def test_unwritable_output_fails_before_the_solve(capsys, monkeypatch,
                                                 tmp_path):
    def unreachable(*args):
        raise AssertionError("relation_closure ran")

    monkeypatch.setattr(cli, "relation_closure", unreachable)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "quotient", "--input", LATTICE,
                         "--output", str(target))
    assert code == 3 and out == ""
    assert err.startswith("error: cannot write %s" % target)
    # A path that passes the early check but cannot be opened still exits 3.
    code, out, err = run(capsys, "validate", "--input", LATTICE,
                         "--output", str(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("error: cannot write %s" % tmp_path)


def test_console_usage_error_exits_3():
    proc = subprocess.run(
        [sys.executable, "-m", "zhuforge.cli", "quotient", "--input", LATTICE,
         "--quotient-bound", "x"], capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "error: argument --quotient-bound" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_overlong_rewrite_exits_3_without_a_traceback():
    # The fully inverted word needs a chain of about 20,000 swaps, each one
    # frame deeper than the last.
    expr = "".join("w(%d)" % -k for k in range(1, 202))
    proc = subprocess.run(
        [sys.executable, "-m", "zhuforge.cli", "nf", "--input",
         "virasoro_c_minus2", expr], capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_complete_table_leaves_the_recursion_limit(lattice):
    before = sys.getrecursionlimit()
    complete_table(lattice).normal_form({((0, -1), (0, -2)): 1})
    assert sys.getrecursionlimit() == before


def test_complete_text_output(capsys):
    code, out, _ = run(capsys, "complete", "--input", "virasoro_c_minus2",
                       "--format", "text")
    assert code == 0
    assert "R(w,w,1) = 2*w(-1)" in out
    assert "R(w,w,3) = -1" in out


def test_nf_json_output(capsys):
    code, out, _ = run(capsys, "nf", "w(0)w(-3)1", "--input",
                       "virasoro_c_minus2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rendered"] == "3*w(-4)"
    assert sorted(doc) == ["input", "normal_form", "presentation",
                           "rendered"]


def test_nf_rejects_garbage_expression(capsys):
    code, _, err = run(capsys, "nf", "w(-2)q(1)", "--input",
                       "virasoro_c_minus2")
    assert code == 3 and "error" in err


def test_singular_verdicts(capsys):
    code, out, _ = run(capsys, "singular", "--input", "w3_c_minus2")
    assert code == 0
    doc = json.loads(out)
    assert doc["degenerate"] is False and doc["defects"] == []

    code, out, _ = run(capsys, "singular", "--input", LATTICE)
    assert code == 0
    doc = json.loads(out)
    assert doc["degenerate"] is True and len(doc["defects"]) == 2


def count_defect_searches(monkeypatch) -> list:
    """Record every call of c1_singular_elements, by any module's name."""
    calls = []

    def counted(original):
        def wrapper(*args):
            calls.append(args)
            return original(*args)
        return wrapper

    for module in (cli, reduction, zhu):
        monkeypatch.setattr(module, "c1_singular_elements",
                            counted(module.c1_singular_elements))
    return calls


def test_singular_searches_for_defects_once(capsys, monkeypatch, lattice,
                                            lattice_defects):
    calls = count_defect_searches(monkeypatch)
    code, out, _ = run(capsys, "singular", "--input", LATTICE)
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out) == singular_document(lattice, lattice_defects, False)


@pytest.mark.parametrize("seeds", ["both", "singular-only", "c1-only"])
def test_quotient_searches_for_defects_once(capsys, monkeypatch, seeds):
    # The closure's bracket rule needs the defect verdict even when no
    # defect seeds it; the CLI hands over the one search it made.
    calls = count_defect_searches(monkeypatch)
    code, _, _ = run(capsys, "quotient", "--input", LATTICE,
                     "--seeds", seeds)
    assert code == 0
    assert len(calls) == 1


def test_zhu_complete_and_partial(capsys):
    code, out, _ = run(capsys, "zhu", "--input", "w3_c_minus2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "complete"
    assert len(doc["extra_relations"]) == 1

    # A depth of 0 is a usage error; W3's closure goes deeper than 1.
    code, out, _ = run(capsys, "zhu", "--input", "w3_c_minus2",
                       "--mode-depth", "1")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "partial"
    assert "max_mode_depth" in doc["partial_reason"]


def test_zhu_seed_selection(capsys):
    # The lattice presentation has no stored singular vectors, so
    # restricting to them leaves nothing to close over.
    code, out, _ = run(capsys, "zhu", "--input", LATTICE,
                       "--seeds", "singular-only")
    assert code == 0
    doc = json.loads(out)
    assert doc["extra_relations"] == [] and doc["provenance"] == []

    code, out, _ = run(capsys, "zhu", "--input", LATTICE,
                       "--seeds", "c1-only")
    assert code == 0
    doc = json.loads(out)
    assert doc["extra_relations"] == [[
        {"coeff": "-20", "monomial": ["ea"]},
        {"coeff": "10", "monomial": ["a", "ea"]}]]
    assert doc["provenance"] == [{"seed": "defect(1, 1, 1, 0, 2)",
                                  "chain": [], "membership": "nonzero"}]


def test_quotient_exit_codes(capsys):
    code, out, _ = run(capsys, "quotient", "--input", LATTICE)
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 7 and doc["status"] == "stabilized-at-degree-6"

    code, out, _ = run(capsys, "quotient", "--input", "w3_c_minus2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == "infinite" and doc["status"] == "infinite"


def test_quotient_of_non_pbw_algebra_exits_2(capsys, monkeypatch):
    closure = cli.relation_closure

    def broken(*args):
        zp = closure(*args)
        zp.algebra = jacobi_violating(zp.algebra)
        return zp

    monkeypatch.setattr(cli, "relation_closure", broken)
    code, out, err = run(capsys, "quotient", "--input", LATTICE)
    assert code == 2 and out == ""
    assert err == "error: straightening is not a PBW rewriting at " \
                  "x_em*x_ea*x_a\n"


def test_zhu_of_non_pbw_algebra_exits_2(capsys, monkeypatch):
    # The closure's Groebner basis checks the overlaps before any image.
    algebra = zhu.ZhuAlgebra
    monkeypatch.setattr(zhu, "ZhuAlgebra",
                        lambda p, table: jacobi_violating(algebra(p, table)))
    code, out, err = run(capsys, "zhu", "--input", LATTICE)
    assert code == 2 and out == ""
    assert err == "error: straightening is not a PBW rewriting at " \
                  "x_em*x_ea*x_a\n"


def test_rejected_matrix_model_exits_2_with_an_error(capsys, monkeypatch):
    # A failed self-check is a bug, not a bound: no "unbounded-at-bound".
    monkeypatch.setattr(quotient, "check_matrix_model",
                        lambda zp, matrices: (False, ["[x_a,x_ea] - 4*x_ea"]))
    code, out, err = run(capsys, "quotient", "--input", LATTICE)
    assert code == 2 and out == ""
    assert err == "error: the Groebner basis gave matrices that fail " \
                  "[x_a,x_ea] - 4*x_ea\n"


def test_quotient_bound_option_and_flag(capsys, tmp_path):
    # A bound is set by its flag alone: a file that carries the options
    # block which once set it is refused, not run with other bounds.
    data = Path(cli.__file__).parent / "data" / (LATTICE + ".json")
    doc = json.loads(data.read_text(encoding="utf-8"))
    doc["options"] = {"quotient_degree_bound": 3}
    path = tmp_path / "bound3.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "quotient", "--input", str(path))
    assert (code, out, err) == (3, "", "error: $: unknown key 'options'\n")
    # The basis is still moving at 3.
    code, out, _ = run(capsys, "quotient", "--input", LATTICE,
                       "--quotient-bound", "3")
    assert code == 2
    assert json.loads(out)["status"] == "not-stabilized"
    code, out, _ = run(capsys, "quotient", "--input", LATTICE,
                       "--quotient-bound", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 7 and doc["status"] == "stabilized-at-degree-6"


def test_output_flag_writes_identical_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, out, _ = run(capsys, "zhu", "--input", "w3_c_minus2",
                           "--output", str(path))
        assert code == 0 and out == ""
    first, second = a.read_bytes(), b.read_bytes()
    assert first == second
    assert first.endswith(b"\n")
    json.loads(first)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zhuforge.cli", "nf", "w(1)w(-1)1",
         "--input", "virasoro_c_minus2", "--format", "text"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "2*w(-1)" in proc.stdout


def test_parser_lists_bundled_presentations_once(monkeypatch, capsys):
    # Every subcommand's --input help names the bundled presentations; the
    # directory is listed once per parser, not once per subcommand.
    calls = []
    listing = cli.bundled_names

    def counted():
        calls.append(1)
        return listing()

    monkeypatch.setattr(cli, "bundled_names", counted)
    parser = cli.build_parser()
    assert len(calls) == 1
    with pytest.raises(SystemExit):
        parser.parse_args(["quotient", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert all(name in help_text for name in listing())


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # Importing the module builds no parser; the first `main` call builds
    # one, and later calls, usage errors included, reuse it with the usage
    # text and exit codes of a fresh parser.
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    fresh = subprocess.run(
        [sys.executable, "-c",
         "from zhuforge import cli; print(cli._parser is None)"],
        capture_output=True, text=True)
    assert fresh.stdout == "True\n"
    for _ in range(2):
        assert main(["validate", "--input", LATTICE]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["quotient", "--input", LATTICE, "--quotient-bound", "0"])
        assert exc.value.code == 3
    assert len(builds) == 1
    errors = capsys.readouterr().err.split("usage: ")[1:]
    assert len(errors) == 2 and errors[0] == errors[1]
    with pytest.raises(SystemExit):
        build().parse_args(["quotient", "--input", LATTICE,
                            "--quotient-bound", "0"])
    assert capsys.readouterr().err == "usage: " + errors[0]
