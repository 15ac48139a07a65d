#!/usr/bin/env python3
"""Print the source size of the package, its tests, its scripts and its
benchmark harness: for each file under src/histner and each tests/*.py,
scripts/*.py and perfbench/*.py, its lines that are neither blank nor a
``#`` comment, then the total of each of the four groups. Docstrings count
as code.

Usage: python scripts/source_loc.py
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Each group's directory and the pattern of its files there.
GROUPS = (("src/histner", "**/*.py"), ("tests", "*.py"), ("scripts", "*.py"),
          ("perfbench", "*.py"))


def source_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.strip().startswith("#"))


def main():
    for directory, pattern in GROUPS:
        total = 0
        for path in sorted((ROOT / directory).glob(pattern)):
            n = source_lines(path)
            total += n
            print(f"{n}\t{path.relative_to(ROOT)}")
        print(f"{total}\ttotal {directory}")


if __name__ == "__main__":
    main()
