"""Command-line driver for the pipeline.

Six subcommands: ``validate``, ``complete``, ``nf``, ``singular``, ``zhu``
and ``quotient``, each reading one presentation file and building one
document, which `_emit` writes as JSON (the default) or, with ``--format
text``, as its human-readable view rendered from that JSON document.
Output is byte-identical across runs with the same input and flags.  The
engine has one normal form (`engine`), and each bound of ``zhu`` and
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
file that cannot be written (a directory, or a path in a missing
directory, is checked before any work), a word (in an ``nf``
expression or a singular vector) at a weight with more than
`engine.WORD_BOUND` PBW words, checked as it is parsed, a rewrite chain
deeper than Python's recursion limit, or a run out of memory (an
address-space limit such as ``ulimit -v``).  Exit 3, and exit 2 on a
non-PBW algebra or a failed self-check, print an ``error:`` line on
stderr.  Set ZHUFORGE_LOG to a logging level name, such as debug, to trace
the search on stderr; any other value means info.

A run that names its subcommand first builds that subcommand's parser
alone; ``--help``, a missing or unknown command, an option before the
command and an unknown flag get the full parser of `build_parser`.  Usage,
help and error text and exit codes are the same on both paths.
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


# The six subcommands and their help; `_add_arguments` gives each its flags.
_COMMANDS = {"validate": "check a presentation file",
             "complete": "emit the completed mode table",
             "nf": "normal form of an inline state",
             "singular": "find Jacobi defects / degeneracy verdict",
             "zhu": "emit the top-level presentation",
             "quotient": "finite-dimensional quotient analysis"}


def _add_arguments(sp, name: str, bundled: str) -> None:
    """Add subcommand `name`'s arguments to `sp`; `bundled` lists the
    bundled presentations for the --input help.  ``zhu`` and ``quotient``
    take the closure's bounds, ``quotient`` its own bound too."""
    if name == "nf":
        sp.add_argument("expr", help="state expression, e.g. 'w(0)w(-3)1 - 2 w(-2)w(-1)'")
    sp.add_argument("--input", required=True,
                    help="presentation file (path, or the name of a "
                         "bundled presentation: %s)" % bundled)
    sp.add_argument("--output", default=None,
                    help="write the document here instead of stdout")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    if name in ("zhu", "quotient"):
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
    if name == "quotient":
        sp.add_argument("--quotient-bound", type=_positive_int,
                        default=QUOTIENT_DEGREE_BOUND,
                        help="grade bound on the Groebner basis "
                             "elements (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    """The full parser: ``zhuforge`` with all six subcommands."""
    parser = _Parser(
        prog="zhuforge",
        description="Mode-algebra completion, normal forms, and top-level "
                    "algebra presentations for vertex algebras given by "
                    "generators and quadratic relations.")
    sub = parser.add_subparsers(dest="command", required=True)
    bundled = ", ".join(bundled_names())
    for name, text in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name, bundled)
    return parser


# Subcommand name -> its own parser, ``zhuforge NAME`` as `build_parser`
# makes it, built by the first `main` call that names it.
_parsers = {}


def _load(path):
    if os.path.exists(path):
        return load_presentation(path)
    if path in bundled_names():
        return load_bundled(path)
    raise PresentationError("%s: no such file or bundled presentation" % path)


def _unwritable(path):
    """Why `path` cannot be a new or overwritten file, or None."""
    if os.path.isdir(path):
        return "is a directory"
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        return "no such directory"
    return None


def _emit(args, doc, code: int = EXIT_OK) -> int:
    """Write `doc` as JSON or as its text view; returns `code`, or
    EXIT_PARSE if the output file cannot be written."""
    text = (_json(doc) if args.format == "json"
            else documents.TEXT[args.command](doc)) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print("error: cannot write %s: %s"
              % (args.output, exc.strerror or exc), file=sys.stderr)
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
        level = logging.getLevelName(level.upper())   # a name, else INFO
        logging.basicConfig(
            stream=sys.stderr, format="%(name)s: %(message)s",
            level=level if isinstance(level, int) else logging.INFO)
    # A run that names its subcommand parses with that subcommand's parser
    # alone.  Anything else, an unknown flag included, goes to the full
    # parser, whose usage and errors the subcommand's parser lacks.
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else None
    if name in _COMMANDS and name not in _parsers:
        _parsers[name] = _Parser(prog="zhuforge " + name)
        _parsers[name].set_defaults(command=name)
        _add_arguments(_parsers[name], name, ", ".join(bundled_names()))
    args, extra = (_parsers[name].parse_known_args(argv[1:])
                   if name in _parsers else (None, True))
    if extra:
        args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except RecursionError:
        print("error: rewrite chain too deep to reduce", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_PARSE


def _run(args) -> int:
    problem = args.output and _unwritable(args.output)
    if problem:
        print("error: cannot write %s: %s" % (args.output, problem),
              file=sys.stderr)
        return EXIT_PARSE

    try:
        p = _load(args.input)
    except PresentationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE

    issues = validate(p)
    if args.command == "validate":
        return _emit(args, documents.validation_document(p, issues),
                     EXIT_INVALID if issues else EXIT_OK)
    if issues:
        for msg in issues:
            print("invalid presentation: %s" % msg, file=sys.stderr)
        return EXIT_INVALID

    table = complete_table(p)
    if args.command == "complete":
        return _emit(args, documents.table_document(p, table))
    if args.command == "nf":
        try:
            state = p.parse_state(args.expr)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_PARSE
        return _emit(args, documents.nf_document(p, args.expr,
                                                 table.normal_form(state)))

    # One defect search serves `singular` and the closure, which needs the
    # verdict even when no defect seeds it.
    defects = c1_singular_elements(p, table)
    if args.command == "singular":
        return _emit(args, documents.singular_document(p, defects,
                                                       not defects))
    bounds = ClosureBounds(max_mode_depth=args.mode_depth,
                           membership_degree_bound=args.membership_bound)
    try:
        zp = relation_closure(_gather_seeds(p, defects, args.seeds), p,
                              table, bounds, defects)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARTIAL
    if args.command == "zhu":
        return _emit(args, documents.zhu_document(zp),
                     EXIT_OK if zp.status == "complete" else EXIT_PARTIAL)

    try:
        model = quotient_basis(zp, args.quotient_bound)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARTIAL
    partial = zp.status != "complete" or model.status == "not-stabilized"
    return _emit(args, documents.quotient_document(zp, model),
                 EXIT_PARTIAL if partial else EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
