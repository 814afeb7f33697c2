"""Command-line driver for the pipeline.

Six subcommands: ``validate``, ``complete``, ``nf``, ``singular``, ``zhu``
and ``quotient``, each reading one presentation file and writing one
document (JSON by default, ``--format text`` for a human-readable view).
Output is byte-identical across runs with the same input and flags.  The
engine has one rewrite order (`engine`), and each bound of ``zhu`` and
``quotient`` is set by its flag alone, with its default in one place: the
fields of `zhu.ClosureBounds` for ``--mode-depth`` and
``--membership-bound``, `quotient.QUOTIENT_DEGREE_BOUND` for
``--quotient-bound``.

Exit codes: 0 success (an infinite quotient too); 1 the input
presentation failed validation; 2 the computation hit a bound (closure
``partial``, quotient ``not-stabilized``), straightening is not PBW, or
the quotient's matrices fail their self-check; 3 bad input: a usage error
(unknown or missing flag, malformed value), an input that could not be
parsed (bad JSON, a malformed value, an unknown key), an ``--output``
file that cannot be written, checked before any work, or a rewrite chain
deeper than Python's recursion limit (a word with about a thousand
inversions).  Exit 3, and exit 2 on a
non-PBW algebra or a failed self-check, print an ``error:`` line on
stderr.  Set ZHUFORGE_LOG=debug (or any logging level name) to trace the
search on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import documents
from .catalog import bundled_names, load_bundled
from .engine import complete_table
from .presentation import PresentationError, load_presentation, validate
from .reduction import c1_singular_elements
from .zhu import ClosureBounds, relation_closure
from .quotient import QUOTIENT_DEGREE_BOUND, quotient_basis

log = logging.getLogger("zhuforge.cli")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARTIAL = 2
EXIT_PARSE = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on EXIT_PARSE instead of 2 (EXIT_PARTIAL)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, "%s: error: %s\n" % (self.prog, message))


def _positive_int(text: str) -> int:
    """A bound flag: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("must be a positive integer: %r"
                                         % text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zhuforge",
        description="Mode-algebra completion, normal forms, and top-level "
                    "algebra presentations for vertex algebras given by "
                    "generators and quadratic relations.")
    sub = parser.add_subparsers(dest="command", required=True)
    bundled = ", ".join(bundled_names())

    def common(sp, bounds=False, quotient=False):
        sp.add_argument("--input", required=True,
                        help="presentation file (path, or the name of a "
                             "bundled presentation: %s)" % bundled)
        sp.add_argument("--output", default=None,
                        help="write the document here instead of stdout")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        if bounds:
            sp.add_argument("--mode-depth", type=_positive_int,
                            default=ClosureBounds.max_mode_depth,
                            help="maximum mode-chain length applied to seeds")
            sp.add_argument("--membership-bound", type=_positive_int,
                            default=ClosureBounds.membership_degree_bound,
                            help="grade bound on the Groebner basis that "
                                 "decides which relations are new")
            sp.add_argument("--seeds", default="both",
                            choices=("singular-only", "c1-only", "both"),
                            help="which seeds feed the relation closure")
        if quotient:
            sp.add_argument("--quotient-bound", type=_positive_int,
                            default=QUOTIENT_DEGREE_BOUND,
                            help="grade bound on the Groebner basis "
                                 "elements (default: %(default)s)")

    common(sub.add_parser("validate", help="check a presentation file"))
    common(sub.add_parser("complete", help="emit the completed mode table"))
    nf = sub.add_parser("nf", help="normal form of an inline state")
    nf.add_argument("expr", help="state expression, e.g. 'w(0)w(-3)1 - 2 w(-2)w(-1)'")
    common(nf)
    common(sub.add_parser("singular",
                          help="find Jacobi defects / degeneracy verdict"))
    common(sub.add_parser("zhu", help="emit the top-level presentation"),
           bounds=True)
    common(sub.add_parser("quotient",
                          help="finite-dimensional quotient analysis"),
           bounds=True, quotient=True)
    return parser


_parser = None      # `build_parser()`, made by the first `main` call


def _load(path):
    if os.path.exists(path):
        return load_presentation(path)
    if path in bundled_names():
        return load_bundled(path)
    raise PresentationError("%s: no such file or bundled presentation" % path)


def _emit(text: str, output, code: int = EXIT_OK) -> int:
    """Write the document; returns `code`, or EXIT_PARSE if unwritable."""
    if not text.endswith("\n"):
        text += "\n"
    if not output:
        sys.stdout.write(text)
        return code
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print("error: cannot write %s: %s" % (output, exc.strerror or exc),
              file=sys.stderr)
        return EXIT_PARSE
    return code


def _json(doc) -> str:
    return json.dumps(doc, indent=2)


def _gather_seeds(p, defects, which: str):
    seeds = list(p.singular_vectors) if which != "c1-only" else []
    if which != "singular-only":
        seeds += [("defect%s" % (d.indices,), d.value) for d in defects]
    return seeds


def main(argv=None) -> int:
    level = os.environ.get("ZHUFORGE_LOG")
    if level:
        logging.basicConfig(stream=sys.stderr,
                            level=getattr(logging, level.upper(), logging.INFO),
                            format="%(name)s: %(message)s")
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return _run(args)
    except RecursionError:
        print("error: rewrite chain too deep to reduce", file=sys.stderr)
        return EXIT_PARSE


def _run(args) -> int:
    if args.output and not os.path.isdir(os.path.dirname(
            os.path.abspath(args.output))):
        print("error: cannot write %s: no such directory" % args.output,
              file=sys.stderr)
        return EXIT_PARSE

    try:
        p = _load(args.input)
    except PresentationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE

    issues = validate(p)
    if args.command == "validate":
        doc = documents.validation_document(p, issues)
        text = (_json(doc) if args.format == "json"
                else documents.render_validation_text(doc))
        return _emit(text, args.output, EXIT_INVALID if issues else EXIT_OK)
    if issues:
        for msg in issues:
            print("invalid presentation: %s" % msg, file=sys.stderr)
        return EXIT_INVALID

    table = complete_table(p)

    if args.command == "complete":
        return _emit(_json(documents.table_document(p, table))
                     if args.format == "json"
                     else documents.render_table_text(p, table), args.output)

    if args.command == "nf":
        try:
            state = p.parse_state(args.expr)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_PARSE
        nf = table.normal_form(state)
        doc = documents.nf_document(p, args.expr, nf)
        return _emit(_json(doc) if args.format == "json"
                     else documents.render_nf_text(doc), args.output)

    if args.command == "singular":
        defects = c1_singular_elements(p, table)
        doc = documents.singular_document(p, defects, not defects)
        return _emit(_json(doc) if args.format == "json"
                     else documents.render_singular_text(p, doc), args.output)

    bounds = ClosureBounds(max_mode_depth=args.mode_depth,
                           membership_degree_bound=args.membership_bound)
    # The closure needs the defect verdict even when no defect seeds it.
    defects = c1_singular_elements(p, table)
    try:
        zp = relation_closure(_gather_seeds(p, defects, args.seeds), p,
                              table, bounds, defects)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARTIAL

    if args.command == "zhu":
        doc = documents.zhu_document(zp)
        return _emit(_json(doc) if args.format == "json"
                     else documents.render_zhu_text(zp), args.output,
                     EXIT_OK if zp.status == "complete" else EXIT_PARTIAL)

    # quotient
    try:
        model = quotient_basis(zp, args.quotient_bound)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARTIAL
    doc = documents.quotient_document(zp, model)
    partial = zp.status != "complete" or model.status == "not-stabilized"
    return _emit(_json(doc) if args.format == "json"
                 else documents.render_quotient_text(doc), args.output,
                 EXIT_PARTIAL if partial else EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
