"""Golden documents: the `zhu` and `quotient` output of every bundled
presentation, byte for byte, in JSON and text, and of three generated
family members in JSON, under both reduction strategies.

The expected text lives in tests/golden/<input>.<command>.<json|txt>; both
strategies must print the same bytes.  A change that means to alter the
output regenerates a file with, for example,

    zhuforge quotient --input lattice_rank1_norm4 --format text \
        > tests/golden/lattice_rank1_norm4.quotient.txt

The generated members are M(4,7), whose closure re-embeds the largest
state of `virasoro_minimal` (its null vector of weight 18), the lattice
N=3, whose closure runs the defect path, and L_2(sl2), whose closure runs
the bracket rule on three generators; their inputs are
`perfbench/families.py` documents written to a file first.
"""

import json
from pathlib import Path

import pytest

from zhuforge.cli import main
from zhuforge.catalog import bundled_names

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = [(name, command, fmt) for name in sorted(bundled_names())
         for command in ("zhu", "quotient") for fmt in ("json", "text")]


@pytest.mark.parametrize("name,command,fmt", CASES,
                         ids=["%s-%s-%s" % case for case in CASES])
@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_document_matches_golden_file(capsys, name, command, fmt, strategy):
    code = main([command, "--input", name, "--format", fmt,
                 "--strategy", strategy])
    out = capsys.readouterr().out
    assert code == 0
    ext = "json" if fmt == "json" else "txt"
    golden = GOLDEN / ("%s.%s.%s" % (name, command, ext))
    assert out == golden.read_text(encoding="utf-8")


# name -> (family member, extra `quotient` flags)
MEMBERS = {
    "virasoro_M4_7": (lambda f: f.virasoro_member(4, 7),
                      ["--quotient-bound", "20"]),
    "lattice_N3": (lambda f: f.lattice_member(3), []),
    "sl2_k2": (lambda f: f.sl2_member(2), []),
}
MEMBER_CASES = [(name, command) for name in MEMBERS
                for command in ("zhu", "quotient")]


@pytest.mark.parametrize("name,command", MEMBER_CASES,
                         ids=["%s-%s" % case for case in MEMBER_CASES])
@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_member_document_matches_golden_file(capsys, tmp_path, families,
                                             name, command, strategy):
    build, flags = MEMBERS[name]
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(build(families).doc))
    code = main([command, "--input", str(path), "--strategy", strategy]
                + (flags if command == "quotient" else []))
    out = capsys.readouterr().out
    assert code == 0
    golden = GOLDEN / ("%s.%s.json" % (name, command))
    assert out == golden.read_text(encoding="utf-8")
