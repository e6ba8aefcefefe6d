"""Count the code lines of the package and of the benchmark scripts.

A code line is a source line that holds at least one token other than a
comment, a line break, an indent or a docstring.  A docstring is a string
literal that is a statement of its own (the first statement of a module,
class or function, or any other bare string).  A token that spans several
lines, such as a triple-quoted string inside an expression, makes each of
its lines a code line.

Run from anywhere, with no options:

    python tools/code_lines.py

It prints one line per module of ``src/spectomo`` and ``benchmarks``, then
each directory's total.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIRECTORIES = ("src/spectomo", "benchmarks")
# tokens that mark a statement's bounds or indentation, not its content
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at `path`."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    # the first token is always ENCODING and the last ENDMARKER
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and before.type in _LAYOUT
                and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue                                # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    for directory in DIRECTORIES:
        total = 0
        for path in sorted((ROOT / directory).glob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{directory}/{path.name:<16} {n:5d}")
        print(f"{directory:<29} {total:5d} total")


if __name__ == "__main__":
    main()
