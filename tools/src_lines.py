"""Count each module's lines under src/ as code, docstring, comment and blank.

    python tools/src_lines.py [DIR]

DIR defaults to the src/ directory next to this script's parent.  Every
line of a module is one of four kinds, read from the module's tokens
(stdlib tokenize), so a hand count cannot drift:

- docstring: a line of a string literal that is a statement on its own
  (a module, class or function docstring, or any other bare string);
- code: any other line holding a token, a continuation or a multi-line
  string that is part of an expression;
- comment: a line whose only token is a comment;
- blank: a line of whitespace only, outside any string.

The four counts add up to the module's line count; a last row sums them.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
# tokens that carry no code of their own
_LAYOUT = {tokenize.ENCODING, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.COMMENT}


def line_kinds(path) -> list[str]:
    """The kind of each line of the Python file at path, in line order."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    n_lines = len(Path(path).read_bytes().splitlines())
    kinds = ["blank"] * n_lines
    # a statement that is one string token: the tokens around it end statements
    ends = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
    significant = [t for t in tokens if t.type not in _LAYOUT or t.type in ends]
    for k, tok in enumerate(significant):
        if tok.type in ends:
            continue
        bare_string = (tok.type == tokenize.STRING and significant[k - 1].type in ends
                       and k + 1 < len(significant)
                       and significant[k + 1].type == tokenize.NEWLINE)
        for line in range(tok.start[0], tok.end[0] + 1):
            if kinds[line - 1] != "code":
                kinds[line - 1] = "docstring" if bare_string else "code"
    for tok in tokens:
        if tok.type == tokenize.COMMENT and kinds[tok.start[0] - 1] == "blank":
            kinds[tok.start[0] - 1] = "comment"
    return kinds


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<28}" + "".join(f"{k:>10}" for k in KINDS) + f"{'total':>8}")
    for path in sorted(root.rglob("*.py")):
        kinds = line_kinds(path)
        counts = {k: kinds.count(k) for k in KINDS}
        for k in KINDS:
            totals[k] += counts[k]
        print(f"{str(path.relative_to(root)):<28}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{len(kinds):>8}")
    print(f"{'total':<28}" + "".join(f"{totals[k]:>10}" for k in KINDS)
          + f"{sum(totals.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
