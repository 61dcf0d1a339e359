#!/usr/bin/env python3
"""Every counter the kernel interns must have a reader.

For each string literal passed to Intern("...") under src/, require a "..."
literal of the same name somewhere under bench/, tests/, examples/ or
perfbench/.  A counter that no test, bench, example or perfbench names is
state written but never read; the script prints each such name and exits 1.

Histograms (InternHistogram), trace events and names built from a prefix at
run time are out of scope.

Run from anywhere:  python3 tools/check_counter_readers.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WRITERS = ["src"]
READERS = ["bench", "tests", "examples", "perfbench"]
SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".py"}

INTERN = re.compile(r'\bIntern\(\s*"([^"]+)"')
LITERAL = re.compile(r'"([^"\n]*)"')


def sources(top):
    for path in sorted((ROOT / top).rglob("*")):
        if path.is_file() and path.suffix in SOURCE_SUFFIXES:
            yield path


def main():
    interned = {}
    for top in WRITERS:
        for path in sources(top):
            for name in INTERN.findall(path.read_text()):
                interned.setdefault(name, path.relative_to(ROOT))
    read = set()
    for top in READERS:
        for path in sources(top):
            read.update(LITERAL.findall(path.read_text()))
    unread = sorted(name for name in interned if name not in read)
    for name in unread:
        print(f"{interned[name]}: counter {name} has no reader")
    print(f"{len(interned)} interned counters, {len(unread)} without a reader")
    return 1 if unread else 0


if __name__ == "__main__":
    sys.exit(main())
