#!/usr/bin/env python3
"""Every configuration option must have a user.

For each field of KernelConfig, BaselineConfig, AnsweringConfig and
ProfConfig, require an assignment to it -- "v.field =" or "v.field.x =" on a
variable `v` of the struct's type, or ".field =" in a designated initializer
of the type -- in a source file under bench/, perfbench/ or src/, outside the
struct that declares it.  A variable's type is that of its latest
declaration earlier in the same file, and "v.field.x =" also sets field x of
a field whose type is one of the four (KernelConfig::profile is a
ProfConfig).  Assignments in tests and examples do not count: an option that
only a test or an example sets is one that no program runs with, and belongs
in a constant.

ALLOWED names the fields kept settable without such a user, each with its
reason.  The script prints each other field with no user and exits 1.

Run from anywhere:  python3 tools/check_option_users.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STRUCTS = {
    "KernelConfig": "src/kernel/kernel.h",
    "BaselineConfig": "src/baseline/supervisor.h",
    "AnsweringConfig": "src/answering/service.h",
    "ProfConfig": "src/sim/prof.h",
}
USERS = ["bench", "perfbench", "src"]
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}

ALLOWED = {
    ("KernelConfig", "secret"): "a per-boot credential: each installation sets its own",
    ("KernelConfig", "root_acl"): "a deployment setting: a hardened installation narrows it",
}

# A data member at the struct's top level: "<type> <name> = ...;",
# "<type> <name>;" or "<type> <name>{...};".  Static members and member
# functions are not options.
FIELD = re.compile(r"^\s*(?!static\b|using\b|return\b)([\w:<>,\s*&]+?)[\s*&](\w+)\s*(?:=|;|\{)")
TYPES = "|".join(STRUCTS)
# A declaration of a variable (or parameter, or member) of one of the types.
DECLARATION = re.compile(r"\b(?:mks::)?(" + TYPES + r")\b[\s&*]+(\w+)\s*(?=[;={(),])")
# An assignment through a variable: v.a = ... or v.a.b = ...
ASSIGNMENT = re.compile(r"\b(\w+)\.(\w+)(?:\.(\w+))?\s*=(?!=)")
# The start of a braced initializer of one of the types.
INITIALIZER = re.compile(r"\b(?:mks::)?(" + TYPES + r")\s*\{")
DESIGNATOR = re.compile(r"\.(\w+)\s*=(?!=)")


def strip_comment(line):
    return line.split("//", 1)[0]


def closing_brace(text, open_at):
    """The offset just past the brace that closes the one at `open_at`."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    raise SystemExit("unbalanced braces")


def struct_span(text, name):
    """Returns (start, end) offsets of the struct's definition."""
    match = re.search(r"\bstruct\s+" + name + r"\s*\{", text)
    if match is None:
        raise SystemExit(f"struct {name} not found")
    return match.start(), closing_brace(text, match.end() - 1)


def fields(body):
    """{name: type} of the body's top-level data members."""
    found = {}
    depth = 0
    for raw in body.splitlines():
        line = strip_comment(raw)
        if depth == 1 and "(" not in line.split("=", 1)[0]:
            match = FIELD.match(line)
            if match:
                found[match.group(2)] = match.group(1).strip().removeprefix("mks::")
        depth += line.count("{") - line.count("}")
    return found


def sources(top):
    for path in sorted((ROOT / top).rglob("*")):
        if path.is_file() and path.suffix in SOURCE_SUFFIXES:
            yield path


def uses(text, declared):
    """The (struct, field) pairs `text` assigns."""
    used = set()
    declarations = [(m.start(), m.group(2), m.group(1)) for m in DECLARATION.finditer(text)]
    for match in ASSIGNMENT.finditer(text):
        var, first, second = match.groups()
        types = [t for at, name, t in declarations if name == var and at < match.start()]
        if not types:
            continue
        struct = types[-1]
        if first in declared[struct]:
            used.add((struct, first))
            inner = declared[struct][first]
            if second is not None and inner in declared and second in declared[inner]:
                used.add((inner, second))
    for match in INITIALIZER.finditer(text):
        struct = match.group(1)
        body = text[match.end():closing_brace(text, match.end() - 1) - 1]
        # Only the initializer's own level: nested braces belong to others.
        depth = 0
        for i, char in enumerate(body):
            depth += (char == "{") - (char == "}")
            if depth == 0 and char == ".":
                designator = DESIGNATOR.match(body, i)
                if designator and designator.group(1) in declared[struct]:
                    used.add((struct, designator.group(1)))
    return used


def main():
    texts = {}
    for top in USERS:
        for path in sources(top):
            texts[path.relative_to(ROOT).as_posix()] = path.read_text()
    declared = {}  # struct -> {field: type}
    for struct, header in STRUCTS.items():
        start, end = struct_span(texts[header], struct)
        declared[struct] = fields(texts[header][start:end])
        # The declaring struct's own text is not a user.
        texts[header] = texts[header][:start] + texts[header][end:]
    options = [(struct, name) for struct in STRUCTS for name in declared[struct]]
    used = set()
    for text in texts.values():
        used |= uses(text, declared)
    unused = [option for option in options if option not in used and option not in ALLOWED]
    for struct, name in unused:
        print(f"{STRUCTS[struct]}: {struct}::{name} is set by no bench, perfbench or src code")
    stale = sorted(set(ALLOWED) - set(options))
    for struct, name in stale:
        print(f"tools/check_option_users.py: ALLOWED names {struct}::{name}, which is not a field")
    print(f"{len(options)} options, {len(ALLOWED)} allowed without a user, "
          f"{len(unused)} without a user")
    return 1 if unused or stale else 0


if __name__ == "__main__":
    sys.exit(main())
