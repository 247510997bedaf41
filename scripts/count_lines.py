#!/usr/bin/env python3
"""Count the physical and code lines of each Python module in a directory.

A code line is one that holds a token other than a comment, and that is not
part of a module, class or function docstring. Blank lines, comment lines
and docstring lines are physical lines only. Modules are listed in name
order, and the totals come last.

    python3 scripts/count_lines.py [DIR]      # DIR defaults to src/timeloops
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> tuple[int, int]:
    """``(physical, code)`` line counts of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir", nargs="?", default=str(REPO_ROOT / "src" / "timeloops"))
    args = parser.parse_args()
    print(f"{'module':<24} {'physical':>8} {'code':>6}")
    total_physical = total_code = 0
    for path in sorted(Path(args.dir).glob("*.py")):
        physical, code = count_lines(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:<24} {physical:>8} {code:>6}")
    print(f"{'total':<24} {total_physical:>8} {total_code:>6}")


if __name__ == "__main__":
    main()
