#!/usr/bin/env python3
"""Count the lines of code of the tagcopy package.

A line counts when it is not blank and, once indented, does not start
with ``#``; docstrings count. Prints the count of each src/tagcopy/*.py
and their total.

Usage: python scripts/count_lines.py
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tagcopy"


def count(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip() and not line.lstrip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = count(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
