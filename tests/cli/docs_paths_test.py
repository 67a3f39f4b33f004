#!/usr/bin/env python3
"""Every file path README.md and DESIGN.md name in backticks exists.

A path is a backticked token that starts with src/, tests/, tools/,
scripts/, bench/ or examples/. A `:line` suffix is ignored, `{h,cpp}`
expands to each alternative, and `*` or a `<placeholder>` matches any
name. A binary is accepted by its source: `bench/scale_rcad` passes if
bench/scale_rcad.cpp exists.

Usage: docs_paths_test.py <repository root>
"""
import glob
import os
import re
import sys

PREFIXES = ("src/", "tests/", "tools/", "scripts/", "bench/", "examples/")
DOCS = ("README.md", "DESIGN.md")


def expand(path):
    """The alternatives of the first {a,b,...} group, recursively."""
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out += expand(path[:m.start()] + alt + path[m.end():])
    return out


def exists(root, path):
    pattern = re.sub(r"<[^<>]*>", "*", path)
    candidates = [pattern]
    if not os.path.splitext(pattern)[1] and not pattern.endswith("/"):
        candidates.append(pattern + ".cpp")
    return any(glob.glob(os.path.join(root, c)) for c in candidates)


def paths_in(text):
    for span in re.findall(r"`([^`\n]+)`", text):
        for token in span.split():
            token = token.strip("()[],;'\"")
            token = re.sub(r":[0-9][0-9,–-]*$", "", token).rstrip(".:")
            if token.startswith(PREFIXES):
                yield token


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    root = sys.argv[1]
    missing = []
    for doc in DOCS:
        with open(os.path.join(root, doc), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for lineno, line in enumerate(lines, 1):
            for path in paths_in(line):
                for alternative in expand(path):
                    if not exists(root, alternative):
                        missing.append("%s:%d: %s" % (doc, lineno, alternative))
    for entry in missing:
        print("missing: " + entry)
    print("docs_paths: %d missing" % len(missing))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
