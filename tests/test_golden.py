"""Golden documents: the `singular`, `zhu` and `quotient` output of every
bundled presentation, byte for byte, in JSON and text, and the `zhu` and
`quotient` output of three generated family members in JSON, with the
`singular` output of the lattice N=3, whose defect search keeps seven
defects.

The expected text lives in tests/golden/<input>.<command>.<json|txt>.  A
change that means to alter the output regenerates a file with, for
example,

    zhuforge quotient --input lattice_rank1_norm4 --format text \
        > tests/golden/lattice_rank1_norm4.quotient.txt

The generated members are M(4,7), whose closure re-embeds the largest
state of `virasoro_minimal` (its null vector of weight 18), the lattice
N=3, whose closure runs the defect path, and L_2(sl2), whose closure runs
the bracket rule on three generators; their inputs are
`perfbench/families.py` documents written to a file first.  The seven
members of `virasoro_minimal`, with L rescaled by -5/4, keep sha256
digests of their `zhu` and `quotient` JSON documents.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from zhuforge.cli import main
from zhuforge.catalog import bundled_names

GOLDEN = Path(__file__).resolve().parent / "golden"
# The rewrite order the golden files were written in; the engine's
# left-action fold gives the same bytes.  Each case id names it.
ORDERS = ["leftmost"]
CASES = [(name, command, fmt) for name in sorted(bundled_names())
         for command in ("singular", "zhu", "quotient")
         for fmt in ("json", "text")]


@pytest.mark.parametrize("name,command,fmt", CASES,
                         ids=["%s-%s-%s" % case for case in CASES])
@pytest.mark.parametrize("order", ORDERS)
def test_document_matches_golden_file(capsys, name, command, fmt, order):
    code = main([command, "--input", name, "--format", fmt])
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
MEMBER_CASES.append(("lattice_N3", "singular"))


@pytest.mark.parametrize("name,command", MEMBER_CASES,
                         ids=["%s-%s" % case for case in MEMBER_CASES])
@pytest.mark.parametrize("order", ORDERS)
def test_member_document_matches_golden_file(capsys, tmp_path, families,
                                             name, command, order):
    build, flags = MEMBERS[name]
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(build(families).doc))
    code = main([command, "--input", str(path)]
                + (flags if command == "quotient" else []))
    out = capsys.readouterr().out
    assert code == 0
    golden = GOLDEN / ("%s.%s.json" % (name, command))
    assert out == golden.read_text(encoding="utf-8")


# M(p, q) of `virasoro_minimal` with L rescaled by -5/4, and its quotient
# bound -> sha256 of the `zhu` and of the `quotient` JSON document.
VIRASORO_DIGESTS = {
    (2, 13): (14, "a7b19b92145b443c7f87818b3d3bc71b"
                  "698286ebfa022a793f4a28e830142808",
                  "27d6b92e06363d0f8502975c419a0dc1"
                  "50717e62fff61885bb19e7b7bded3518"),
    (3, 7): (14, "4e098cdd4ca757493314652be9b36f78"
                 "3e71f8ba7e6d7f578faf396b7b991fc9",
                 "29ca79b3bfd3aaadfad5e1f524777684"
                 "35f3d8b6c88a7d5ba8c72fc9e674a792"),
    (4, 5): (14, "e43916936ef700251284d2033bd56074"
                 "e44b2dec1ac4cfe753f2a3cd381078cb",
                 "c19122e4cacafdf9ab462d833c046860"
                 "d82ec55fdb5ebf48e43ef85e7da3af4a"),
    (2, 15): (16, "a66e090657682bfe0f2bc4ddfe03a905"
                  "fcb221eec8dad5fa0b110c850dc7a32e",
                  "2c5ecb9547e53fe919f95e466eb25c29"
                  "4056156cfa5037a2be4f42f0b27b410d"),
    (3, 8): (16, "b0e1524dac47b4afc4aa50ba3560ac97"
                 "3d86296c35a4779f0b9c230e960b050b",
                 "4e3d75b39f6bc1ec0fee705035c88f05"
                 "12fb269b11eaca0b49abf4d2975f57de"),
    (2, 17): (18, "c161b36bd5564cb95fc30e1eba96b7a4"
                  "1fb3bbbd38df6e7bdeb0bbaa5a2a57f3",
                  "4b2a228a4d85130921908397e70c6dd0"
                  "476a7eee213bae1caa0f7de85c6623d5"),
    (4, 7): (20, "331bd9733751dd8270ddb515cb6f6d77"
                 "826df0b93727b255635cb92c560ed228",
                 "2b3e3c6bed0dc3bc0e0255231f21d0d1"
                 "c553cf6e00f0d59e5be99173bd30ecff"),
}


@pytest.mark.parametrize("pq", sorted(VIRASORO_DIGESTS),
                         ids=["M(%d,%d)" % pq
                              for pq in sorted(VIRASORO_DIGESTS)])
@pytest.mark.parametrize("order", ORDERS)
def test_virasoro_minimal_document_digests(capsys, tmp_path, families, pq,
                                           order):
    bound, zhu_digest, quotient_digest = VIRASORO_DIGESTS[pq]
    path = tmp_path / "member.json"
    path.write_text(json.dumps(
        families.virasoro_member(*pq, scale=Fraction(-5, 4)).doc))
    for command, flags, want in (
            ("zhu", [], zhu_digest),
            ("quotient", ["--quotient-bound", str(bound)], quotient_digest)):
        code = main([command, "--input", str(path)] + flags)
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, \
            (pq, command)
