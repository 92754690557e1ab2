"""Count the lines of a package that hold code.

A line holds code when a token other than a comment, a line break or an
indentation change starts on it, and it is not part of a docstring (the
string that opens a module, class or function body). Blank lines, comments
and docstrings therefore do not count. pytest does not collect this file.

    python tests/codelines.py             # src/electrovac
    python tests/codelines.py path/to/pkg --files
"""

import argparse
import ast
import io
import pathlib
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    starts = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in _LAYOUT}
    return len(starts - docstring_lines(ast.parse(source)))


def main(argv=None):
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "electrovac"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default=str(root))
    parser.add_argument("--files", action="store_true", help="also print each file's count")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(pathlib.Path(args.package).glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        if args.files:
            print(f"{count:6d} {path.name}")
    print(total)


if __name__ == "__main__":
    main()
