#!/usr/bin/env python3
"""Count the non-blank, non-comment lines of each module of a package.

    python3 scripts/loc.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/minorforge``.  A line counts unless it
is blank or its first non-blank character is ``#``; docstrings count.  That
is the count ``grep -vE '^\\s*(#|$)' src/minorforge/*.py | wc -l`` gives.
Prints one line per module, ``count  file``, sorted by file name, then the
total.  Standard library only.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    pkg = argv[0] if argv else os.path.join(ROOT, "src", "minorforge")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            count = count_lines(os.path.join(pkg, name))
            total += count
            print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
