#!/usr/bin/env python3
"""Every src/ module must have a real caller.

A module is a header src/<dir>/<name>.h together with its .cc. It has
a real caller when some file in src/, tools/ or perfbench/, other than
the module's own .h/.cc pair, includes the header; includes from a
module that has no real caller itself do not count. A module that only
its own .cc, tests/ or examples/ include is dead weight for the served
path and the paper gates: delete it with its tests, or, if it earns its
place another way, add it to ALLOWED below with the reason.

An ALLOWED entry that gains a real caller, or whose header is gone, is
reported too, so the list stays exact.

Usage: check_module_reach.py [--root DIR]   (default: the repo root)
       check_module_reach.py --self-test
Exit code 0 when every module is reached or allowed, 1 otherwise.
"""

import os
import re
import sys
import tempfile

# Modules kept without a caller in src/, tools/ or perfbench/.
ALLOWED = {
    "core/dpt_mechanism": "paper Section V end to end; used by the "
    "quickstart and location_release examples and integration_test",
    "markov/reversal": "the Section III-A derivation of P^B from P^F; "
    "used by the quickstart example",
    "core/adversary_sim": "the operational oracle that checks realized "
    "leakage <= TPL; a reference the tests compare against",
}

CALLER_DIRS = ("src", "tools", "perfbench")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def source_files(root, top):
    for dirpath, _, names in os.walk(os.path.join(root, top)):
        for name in sorted(names):
            if name.endswith(SOURCE_SUFFIXES):
                yield os.path.join(dirpath, name)


def modules(root):
    """Maps each module ("core/foo") to its header path."""
    src = os.path.join(root, "src")
    found = {}
    for path in source_files(root, "src"):
        if path.endswith(".h"):
            rel = os.path.relpath(path, src).replace(os.sep, "/")
            found[rel[: -len(".h")]] = path
    return found


def callers(root):
    """Maps each included name ("core/foo.h") to the files including it."""
    included_by = {}
    for top in CALLER_DIRS:
        for path in source_files(root, top):
            with open(path, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
            for name in INCLUDE.findall(text):
                if name.startswith("src/"):
                    name = name[len("src/"):]
                included_by.setdefault(name, set()).add(path)
    return included_by


def pair(header):
    return {header, header[: -len(".h")] + ".cc"}


def check(root):
    """Returns the list of problems found under root."""
    found = modules(root)
    included_by = callers(root)

    # An include from a module that has no real caller itself does not
    # count either, so a chain of test-only modules fails as a whole:
    # grow the set of unreached modules until it stops changing.
    def real_callers(module, unreached):
        ignored = set().union(
            *(pair(found[m]) for m in unreached - set(ALLOWED)))
        return (included_by.get(module + ".h", set()) -
                pair(found[module]) - ignored)

    unreached = set()
    while True:
        grown = {m for m in found if not real_callers(m, unreached)}
        if grown == unreached:
            break
        unreached = grown

    problems = []
    for module in sorted(found):
        reached = real_callers(module, unreached)
        if reached and module in ALLOWED:
            problems.append(
                f"{module}: allowlisted but included from "
                f"{sorted(os.path.relpath(p, root) for p in reached)[0]}; "
                "drop it from ALLOWED")
        elif not reached and module not in ALLOWED:
            problems.append(
                f"{module}: src/{module}.h has no caller in src/, tools/ "
                "or perfbench/ (only its own .cc, tests/, examples/ or "
                "modules without a caller)")
    for module in sorted(set(ALLOWED) - set(found)):
        problems.append(f"{module}: allowlisted but src/{module}.h is gone")
    return problems


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def self_test():
    """The checker must pass a reached tree and fail a planted
    test-only header, a module reached only through it, and a stale
    allowlist entry."""
    with tempfile.TemporaryDirectory() as root:
        for module in ALLOWED:
            write(root, f"src/{module}.h", "")
        write(root, "src/core/used.h", "")
        write(root, "src/core/used.cc", '#include "core/used.h"\n')
        write(root, "tools/cli.cc", '#include "core/used.h"\n')
        if check(root):
            print("self-test: a reached tree was rejected:", check(root))
            return 1
        write(root, "src/core/orphan.h", "")
        write(root, "src/core/orphan.cc", '#include "core/orphan.h"\n')
        write(root, "tests/orphan_test.cc", '#include "core/orphan.h"\n')
        write(root, "examples/orphan.cpp", '#include "core/orphan.h"\n')
        problems = check(root)
        if len(problems) != 1 or not problems[0].startswith("core/orphan"):
            print("self-test: a test-only header was not caught:", problems)
            return 1
        # A module reached only through the orphan fails with it.
        write(root, "src/core/helper.h", "")
        write(root, "src/core/orphan.h", '#include "core/helper.h"\n')
        problems = check(root)
        if [p.split(":")[0] for p in problems] != ["core/helper",
                                                    "core/orphan"]:
            print("self-test: a test-only chain was not caught:", problems)
            return 1
        write(root, "src/core/orphan.cc", "")
        write(root, "perfbench/main.cc",
              '#include "src/core/orphan.h"\n'
              f'#include "{sorted(ALLOWED)[0]}.h"\n')
        problems = check(root)
        if len(problems) != 1 or sorted(ALLOWED)[0] not in problems[0]:
            print("self-test: a stale allowlist entry was not caught:",
                  problems)
            return 1
    print("self-test: ok")
    return 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if len(argv) == 3 and argv[1] == "--root":
        root = argv[2]
    elif len(argv) != 1:
        print(__doc__)
        return 2
    problems = check(root)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"module reach: {len(modules(root))} modules, "
          f"{len(ALLOWED)} allowlisted, all reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
