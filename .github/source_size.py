"""Lines and code lines under src/zhuforge, in total and per module.

A code line is a line that holds a token other than a comment, blank
line or docstring.  Run from the repository root:

    python .github/source_size.py

It prints a Markdown table for the job summary on stdout and, when the
code lines exceed the budget of ROADMAP item 3, a `::warning::`
annotation on stderr, which the runner reads while stdout goes to the
summary file.  It gates nothing: the exit status is 0 whatever the count.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

BUDGET = 1795
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(src: str):
    """(lines, code lines) of the Python source `src`."""
    docs = set()
    for node in ast.walk(ast.parse(src)):
        body = getattr(node, "body", None)
        if (isinstance(node, DEFS) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    seen = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            seen.update(range(tok.start[0], tok.end[0] + 1))
    return len(src.splitlines()), len(seen - docs)


def main():
    rows = [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted(Path("src/zhuforge").rglob("*.py"))]
    code = sum(r[2] for r in rows)
    print("src/zhuforge: %d lines, %d code lines"
          % (sum(r[1] for r in rows), code))
    print()
    print("| module | lines | code lines |")
    print("| --- | ---: | ---: |")
    for name, lines, code_lines in rows:
        print("| %s | %d | %d |" % (name, lines, code_lines))
    if code > BUDGET:
        print("::warning::src/zhuforge has %d code lines, over the budget "
              "of %d" % (code, BUDGET), file=sys.stderr)


if __name__ == "__main__":
    main()
