#!/usr/bin/env python3
"""Prints the src/ functions and lines that no coverage run executed.

Usage:

    python3 tools/coverage/unrun.py SRC_DIR BUILD_DIR [BUILD_DIR ...]

Each BUILD_DIR is a `--coverage` build that has been run (tools/coverage/
run.sh makes and runs two).  Every compiled translation unit's notes file
(`*.gcno`) goes through `gcov --json-format --stdout`, with its counts
(`*.gcda`) when the unit ran at all.  Records are merged over every unit
and every build: a source line counts as run if any build ran it, and a
function (keyed by file, first line and name) likewise.  Only records of
files under SRC_DIR are kept, headers included.

The report gives the totals, then every function no run reached, then the
unrun lines of each file as ranges.  Death-test children abort, and a
process that aborts writes no counts, so the functions only death tests
reach (DEATH_TEST_ONLY) are listed apart instead of among the unrun.
"""

import collections
import json
import os
import subprocess
import sys

# Functions that only run inside death-test children, each named by a
# substring of its demangled name.  Every one is a [[noreturn]] report that
# ends in abort(): the stall watchdog's flight-recorder dump, the targeted
# shootdown's completeness check and the lost-writeback check.
DEATH_TEST_ONLY = ("DumpStallAndAbort", "ShootdownMissed", "LostWriteback")


def gcov_records(build_dir):
    """Yields gcov's per-unit JSON documents for every unit in build_dir."""
    notes = []
    for dirpath, _, names in os.walk(build_dir):
        notes.extend(os.path.join(dirpath, n) for n in names if n.endswith(".gcno"))
    notes.sort()
    decoder = json.JSONDecoder()
    batch = 64
    for i in range(0, len(notes), batch):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + notes[i:i + batch],
            cwd=build_dir, capture_output=True, text=True, check=True).stdout
        pos = 0
        while True:
            while pos < len(out) and out[pos].isspace():
                pos += 1
            if pos == len(out):
                break
            doc, pos = decoder.raw_decode(out, pos)
            yield doc


def ranges(numbers):
    """Formats sorted line numbers as comma-separated ranges."""
    spans = []
    for n in numbers:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    src = os.path.realpath(argv[1])
    root = os.path.dirname(src)
    lines = collections.defaultdict(int)      # (file, line) -> count
    functions = collections.defaultdict(int)  # (file, start line, name) -> count
    for build_dir in argv[2:]:
        for doc in gcov_records(build_dir):
            cwd = doc.get("current_working_directory", build_dir)
            for record in doc["files"]:
                path = os.path.realpath(os.path.join(cwd, record["file"]))
                if not path.startswith(src + os.sep):
                    continue
                rel = os.path.relpath(path, root)
                for line in record["lines"]:
                    lines[(rel, line["line_number"])] += line["count"]
                for fn in record["functions"]:
                    key = (rel, fn["start_line"], fn["demangled_name"])
                    functions[key] += fn["execution_count"]

    unrun_lines = sorted(key for key, count in lines.items() if count == 0)
    unrun_fns = sorted(key for key, count in functions.items() if count == 0)
    death_only = [k for k in unrun_fns if any(d in k[2] for d in DEATH_TEST_ONLY)]
    unrun_fns = [k for k in unrun_fns if k not in death_only]
    print("src/: %d of %d executable lines unrun; %d of %d functions unrun"
          % (len(unrun_lines), len(lines), len(unrun_fns) + len(death_only),
             len(functions)))
    print("\nFunctions no run reaches:")
    for path, line, name in unrun_fns:
        print("  %s:%d %s" % (path, line, name))
    print("\nReached only in death-test children, which write no counts:")
    for path, line, name in death_only:
        print("  %s:%d %s" % (path, line, name))
    print("\nUnrun lines by file:")
    by_file = collections.defaultdict(list)
    for path, line in unrun_lines:
        by_file[path].append(line)
    for path in sorted(by_file):
        print("  %s (%d): %s" % (path, len(by_file[path]), ranges(by_file[path])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
