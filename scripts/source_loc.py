#!/usr/bin/env python3
"""Print the source size of the package: for each file under src/histner,
its lines that are neither blank nor a ``#`` comment, then their total.
Docstrings count as code.

Usage: python scripts/source_loc.py
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def source_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.strip().startswith("#"))


def main():
    total = 0
    for path in sorted((ROOT / "src" / "histner").rglob("*.py")):
        n = source_lines(path)
        total += n
        print(f"{n}\t{path.relative_to(ROOT)}")
    print(f"{total}\ttotal")


if __name__ == "__main__":
    main()
