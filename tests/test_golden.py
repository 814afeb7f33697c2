"""Golden documents: the `zhu` and `quotient` output of every bundled
presentation, byte for byte, in JSON and text, under both reduction
strategies.

The expected text lives in tests/golden/<input>.<command>.<json|txt>; both
strategies must print the same bytes.  A change that means to alter the
output regenerates a file with, for example,

    zhuforge quotient --input lattice_rank1_norm4 --format text \
        > tests/golden/lattice_rank1_norm4.quotient.txt
"""

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
