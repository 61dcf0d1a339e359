#!/usr/bin/env python3
"""Resolves the program-counter samples sampler.cc writes into host shares.

Usage:

    python3 tools/profile/resolve.py BINARY [SAMPLES]

BINARY is the sampled program, built with frame pointers and without PIE;
SAMPLES is the file the sampler wrote (default: pcsamples.out).  Every
distinct address goes through one `addr2line -a -f -C -i` call.  A return
address is looked up minus one, so that it falls inside its call
instruction; `-i` expands inlined frames, so an address in inlined code
names its own source line and every function it was inlined into.

Three tables are printed, each as a share of all samples:

  * self by function: the innermost function at each sample's program
    counter;
  * self by line: the innermost source line there;
  * inclusive by function: each function counted once per sample that has
    it in any frame, inlined frames included.

Addresses outside the binary (shared libraries such as libc's memset and
malloc) do not resolve and are counted as "?? (outside the binary)".
"""

import collections
import os
import re
import subprocess
import sys

TOP = 25
UNRESOLVED = "?? (outside the binary)"
ADDRESS = re.compile(r"^0x[0-9a-f]+$")


def read_samples(path):
    """Returns the samples, each a list of addresses, innermost first."""
    samples = []
    with open(path) as f:
        for line in f:
            fields = line.split()
            if fields:
                samples.append([int(a, 16) for a in fields])
    return samples


def short_path(path):
    """The path from the repository's src/ or perfbench/ on, when it has one."""
    path = os.path.normpath(path)
    match = re.search(r"(?:^|/)((?:src|perfbench|tests|bench|tools)/.*)$", path)
    return match.group(1) if match else path


def resolve(binary, addresses):
    """Maps each address to its frames, innermost first, as (function, line)."""
    query = "\n".join(f"{a:x}" for a in addresses) + "\n"
    done = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
                          input=query, capture_output=True, text=True, check=True)
    frames = {}
    current = None
    lines = done.stdout.splitlines()
    i = 0
    while i < len(lines):
        if ADDRESS.match(lines[i]):
            current = int(lines[i], 16)
            frames[current] = []
            i += 1
            continue
        function = lines[i]
        where = lines[i + 1] if i + 1 < len(lines) else "??:0"
        where = where.split(" (discriminator")[0]
        if function == "??":
            frames[current].append((UNRESOLVED, UNRESOLVED))
        else:
            file, _, number = where.rpartition(":")
            frames[current].append((function, f"{short_path(file)}:{number}"))
        i += 2
    return frames


def print_table(title, counts, total):
    print(f"\n{title}")
    for name, n in counts.most_common(TOP):
        print(f"{100.0 * n / total:6.1f}%  {n:7d}  {name}")


def main(argv):
    if len(argv) not in (2, 3):
        print(f"usage: {argv[0]} BINARY [SAMPLES]", file=sys.stderr)
        return 2
    binary = argv[1]
    samples = read_samples(argv[2] if len(argv) == 3 else "pcsamples.out")
    if not samples:
        print("no samples", file=sys.stderr)
        return 1
    # The program counter as it is; return addresses minus one.
    lookups = [[s[0]] + [a - 1 for a in s[1:]] for s in samples]
    frames = resolve(binary, sorted({a for s in lookups for a in s}))

    self_function = collections.Counter()
    self_line = collections.Counter()
    inclusive = collections.Counter()
    for s in lookups:
        innermost = frames[s[0]][0]
        self_function[innermost[0]] += 1
        self_line[innermost[1]] += 1
        inclusive.update({function for a in s for function, _ in frames[a]})

    total = len(samples)
    print(f"{total} samples from {binary}")
    print_table("self by function", self_function, total)
    print_table("self by line", self_line, total)
    print_table("inclusive by function", inclusive, total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
