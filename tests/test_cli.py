"""Command-line interface: exit codes, documents, and determinism."""

import functools
import hashlib
import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from conftest import jacobi_violating
from zhuforge import cli, complete_table, documents, quotient, reduction, zhu
from zhuforge.cli import main
from zhuforge.documents import singular_document
from zhuforge.engine import WORD_BOUND

LATTICE = "lattice_rank1_norm4"
# Fails validation: a diagonal product w_k w is stored only for odd k.
INVALID = {
    "name": "bad",
    "generators": [{"symbol": "w", "weight": 2}],
    "relations": [{"i": 0, "j": 0, "k": 2, "value": []}],
}


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
    bad.write_text(json.dumps(INVALID))
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
    # Text that is not JSON, a directory and bytes that are not UTF-8 each
    # exit 3 with an error line, not a traceback.
    broken, directory, binary = (tmp_path / name
                                 for name in ("broken.json", "dir", "bin"))
    broken.write_text("{ not json")
    directory.mkdir()
    binary.write_bytes(b"\xff\xfe{}")
    for bad in (broken, directory, binary):
        code, out, err = run(capsys, "validate", "--input", str(bad))
        assert code == 3 and out == "", bad
        assert err.startswith("error: %s: cannot load: " % bad), err


@pytest.mark.parametrize("argv", [
    [],
    ["quotient"],
    ["quotient", "--input", LATTICE, "--quotient-bound", "x"],
    ["zhu", "--input", LATTICE, "--seeds", "all"],
    ["frobnicate", "--input", LATTICE],
    # The rewrite order is fixed: the flag that chose it is gone.
    ["complete", "--input", LATTICE, "--strategy", "leftmost"],
    # The closure's one cap is its generator budget, which has no flag.
    ["zhu", "--input", "w3_c_minus2", "--mode-depth", "1"],
])
def test_usage_errors_exit_3(capsys, argv):
    # Not 2: that code means a bound stopped the computation.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 3
    assert "usage:" in err and "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [
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
    # A file in a missing directory, and a directory.
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, "quotient", "--input", LATTICE,
                             "--output", str(target))
        assert code == 3 and out == ""
        assert err.startswith("error: cannot write %s" % target)
    # A path that passes the early check but cannot be opened still exits
    # 3: a dangling symlink into a missing directory.
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, "validate", "--input", LATTICE,
                         "--output", str(link))
    assert code == 3 and out == ""
    assert err.startswith("error: cannot write %s: " % link)
    assert not link.exists()


def test_console_usage_error_exits_3():
    proc = subprocess.run(
        [sys.executable, "-m", "zhuforge.cli", "quotient", "--input", LATTICE,
         "--quotient-bound", "x"], capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "error: argument --quotient-bound" in proc.stderr
    assert "Traceback" not in proc.stderr


# w(-1)w(-2)...w(-201): its weight, 20,502, has far more than WORD_BOUND
# PBW words.
DEEP_WORD = "".join("w(%d)" % -k for k in range(1, 202))


def test_overlong_rewrite_exits_3_without_a_traceback():
    # The word is refused as it is parsed, before any rewriting.
    proc = subprocess.run(
        [sys.executable, "-m", "zhuforge.cli", "nf", "--input",
         "virasoro_c_minus2", DEEP_WORD], capture_output=True, text=True,
        timeout=10)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "WORD_BOUND = %d" % WORD_BOUND in proc.stderr
    assert "Traceback" not in proc.stderr


def test_overlong_singular_vector_exits_3_within_a_second(tmp_path):
    # The same word as a singular vector is refused as the presentation is
    # parsed, before the closure it would seed.
    doc = json.loads((resources.files("zhuforge") / "data" /
                      "virasoro_c_minus2.json").read_text())
    doc["singular_vectors"] = [{"name": "deep", "value": [
        {"coeff": "1", "word": [["w", -k] for k in range(1, 202)]}]}]
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "zhuforge.cli", "zhu", "--input", str(deep)],
        capture_output=True, text=True, timeout=1)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: singular_vectors[0].value: ")
    assert "WORD_BOUND = %d" % WORD_BOUND in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n,digest", [
    (8, "e2331abe9c6eb2f7a9eff4b053e60dd92cd98380acad3b0d894629899572d37a"),
    (9, "e10ea1697ac6bc73353f9aa177682052cdae06f31c82ceaa60f19bfabdd7501d"),
])
def test_inverted_word_normal_form_digests(capsys, n, digest):
    # sha256 of the `nf` JSON of w(-1)w(-2)...w(-n), pinned from the
    # leftmost-first rewriting that the left-action fold replaced.
    expr = "".join("w(%d)" % -k for k in range(1, n + 1))
    code, out, _ = run(capsys, "nf", "--input", "virasoro_c_minus2", expr)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_out_of_memory_exits_3_without_a_traceback():
    # The fully inverted 12-letter word is below WORD_BOUND, and its normal
    # form, folded through the memoized left action, passes a 150 MB
    # address-space limit within a few seconds.  The limit is set in the
    # child only.
    expr = "".join("w(%d)" % -k for k in range(1, 13))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (150_000 * 1024,) * 2)

    proc = subprocess.run(
        [sys.executable, "-m", "zhuforge.cli", "nf", "--input",
         "virasoro_c_minus2", expr], capture_output=True, text=True,
        preexec_fn=limit, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
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


def text_view_cases():
    nf = {"virasoro_c_minus2": "w(0)w(-3)1", "w3_c_minus2": "v(1)v(-3)1",
          LATTICE: "a(0)ea(-2)1-em(-1)a(-1)"}
    for name, expr in nf.items():
        for command in documents.TEXT:
            yield [command, "--input", name] + [expr] * (command == "nf")
    # A partial closure, whose view ends in a `reason:` line, and the
    # issues of an invalid presentation.
    yield ["zhu", "--input", "w3_c_minus2", BUDGET_1]
    yield ["validate", "--input", "invalid.json"]


# In `text_view_cases`, stands for a generator budget of 1, which no flag
# sets: `budget_1` patches it into `cli.ClosureBounds`.
BUDGET_1 = "budget-1"


def budget_1(monkeypatch):
    """Make the closures that `main` runs admit one state past the seeds:
    W3's bundled closure then ends "partial", exit 2."""
    monkeypatch.setattr(cli, "ClosureBounds", functools.partial(
        zhu.ClosureBounds, max_new_generators=1))


@pytest.mark.parametrize("argv", list(text_view_cases()),
                         ids=lambda argv: "-".join(a.lstrip("-") for a in argv
                                                   if a != "--input"))
def test_text_view_renders_the_json_document(capsys, monkeypatch, tmp_path,
                                             argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "invalid.json").write_text(json.dumps(INVALID))
    if BUDGET_1 in argv:
        budget_1(monkeypatch)
        argv = [a for a in argv if a != BUDGET_1]
    code, out, _ = run(capsys, *argv)
    text_code, text, _ = run(capsys, *argv, "--format", "text")
    assert text_code == code
    assert text == documents.TEXT[argv[0]](json.loads(out)) + "\n"


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
    code, out, err = run(capsys, "nf", "3/0 w(-2)", "--input",
                         "virasoro_c_minus2")
    assert code == 3 and out == ""
    assert err == "error: zero denominator in '3/0 w(-2)'\n"
    for expr in ("w(-2) +", "3 *", "3 * * w(-2)"):
        code, out, err = run(capsys, "nf", expr, "--input",
                             "virasoro_c_minus2")
        assert code == 3 and out == "" and err.startswith("error: "), expr


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


def test_zhu_complete_and_partial(capsys, monkeypatch):
    code, out, _ = run(capsys, "zhu", "--input", "w3_c_minus2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "complete"
    assert len(doc["extra_relations"]) == 1

    # W3's closure admits more than one state past its seed.
    budget_1(monkeypatch)
    code, out, _ = run(capsys, "zhu", "--input", "w3_c_minus2")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "partial"
    assert doc["partial_reason"] == "max_new_generators 1 exceeded"
    code, text, _ = run(capsys, "zhu", "--input", "w3_c_minus2",
                        "--format", "text")
    assert code == 2
    assert text.rstrip().endswith("reason: max_new_generators 1 exceeded")


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


COMMANDS = ("validate", "complete", "nf", "singular", "zhu", "quotient")


def test_main_builds_only_the_named_subcommands_parser(monkeypatch, capsys):
    # Importing the module builds no parser.  `main` on a named subcommand
    # builds that subcommand's parser alone, once per process, and never
    # the full parser, usage errors included; an unknown flag is the full
    # parser's to report, with its usage.
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import argparse\n"
         "built = []\n"
         "init = argparse.ArgumentParser.__init__\n"
         "def counted(self, *args, **kwargs):\n"
         "    built.append(1)\n"
         "    init(self, *args, **kwargs)\n"
         "argparse.ArgumentParser.__init__ = counted\n"
         "from zhuforge import cli\n"
         "print(len(built), cli._parsers)"],
        capture_output=True, text=True)
    assert fresh.stdout == "0 {}\n", fresh.stderr
    full, added = [], []
    build, add = cli.build_parser, cli._add_arguments

    def counted_build():
        full.append(1)
        return build()

    def counted_add(sp, name, bundled):
        added.append(name)
        add(sp, name, bundled)

    monkeypatch.setattr(cli, "build_parser", counted_build)
    monkeypatch.setattr(cli, "_add_arguments", counted_add)
    monkeypatch.setattr(cli, "_parsers", {})
    parsers = []
    for _ in range(2):
        for name in COMMANDS:
            argv = [name, "--input", "virasoro_c_minus2"]
            assert main(argv + (["w(1)w(-1)1"] if name == "nf" else [])) == 0
        with pytest.raises(SystemExit) as exc:
            main(["quotient", "--input", LATTICE, "--quotient-bound", "0"])
        assert exc.value.code == 3
        parsers.append(dict(cli._parsers))
    assert full == [] and sorted(added) == sorted(COMMANDS)
    assert parsers[0] == parsers[1]
    errors = capsys.readouterr().err.split("usage: ")[1:]
    assert len(errors) == 2 and errors[0] == errors[1]
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--input", LATTICE, "--strategy", "leftmost"])
    assert exc.value.code == 3 and full == [1]
    assert capsys.readouterr().err.startswith("usage: zhuforge [-h] ")


def _outcome(capsys, parse, argv):
    """Exit code, stdout and stderr of `parse(argv)`, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("name", COMMANDS)
@pytest.mark.parametrize("flags", [
    ["--help"],
    ["--input", LATTICE, "--unknown"],
    [],
    ["--input", LATTICE, "--format", "yaml"],
], ids=["help", "unknown-flag", "missing-input", "bad-choice"])
def test_subcommand_parser_matches_the_full_parser(capsys, name, flags):
    # Usage, help and error text and exit codes are the full parser's,
    # byte for byte.
    argv = [name] + flags + (["w(1)w(-1)1"] if name == "nf" and flags else [])
    expected = _outcome(capsys, cli.build_parser().parse_args, argv)
    assert _outcome(capsys, main, argv) == expected
    assert expected[0] == (0 if flags == ["--help"] else 3)


@pytest.mark.parametrize("value,traced", [
    ("debug", True), ("DEBUG", True), ("warning", False),
    # Attributes of `logging` that are not level names mean INFO.
    ("basic_format", False), ("raiseExceptions", False), ("bogus", False),
])
def test_log_level_names_only(value, traced):
    # ZHUFORGE_LOG takes a registered level name; any other value falls
    # back to INFO and never ends the run in a traceback.
    proc = subprocess.run(
        [sys.executable, "-m", "zhuforge.cli", "zhu", "--input", LATTICE],
        capture_output=True, text=True,
        env=dict(os.environ, ZHUFORGE_LOG=value))
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["status"] == "complete"
    assert ("zhuforge.zhu: " in proc.stderr) == traced
