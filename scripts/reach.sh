#!/usr/bin/env bash
# Reachability gate: every tempriv:: function in the libraries under src/ is
# linked by a shipped binary (the tools/, bench/ and examples/ executables
# and perfbench's driver), or is listed in scripts/reach_allow.txt.
#
# Recipe: configure perfbench/ as the source, which pulls in the whole tree,
# at -O0 -fno-inline -fkeep-inline-functions with one section per function
# and data object, and link with --gc-sections. A binary then holds exactly
# the functions it can call, and each archive holds every function its
# headers and sources define. The script takes the union of
# `nm -C --defined-only` over the binaries and subtracts it from the
# archives' tempriv:: text symbols. A name is compared without its
# parameter list and template arguments, so it counts as reached if any
# overload or instantiation is, and a `[clone ...]` copy (the per-target
# -O3 of core, net, sim, adversary and crypto makes them) counts as its
# original. These entries are noise and are dropped: lambda bodies, and
# constructors and destructors (-fkeep-inline-functions emits implicit
# ones; a class with no user is still caught through its other members).
#
# Each line of scripts/reach_allow.txt keeps one unreached name:
#   <name>  item N             N in {4, 7, 10, 13}: that ROADMAP item wires it
#   <name>  oracle Suite.Test  a correctness test drives this engine member;
#                              the file defining Suite.Test must mention it
# The script prints one line per unresolved name: unreached and not
# allowed, an oracle whose test does not mention the member, an allow line
# whose name is reached or gone, or a malformed allow line. It exits 1 if
# it printed any, 0 otherwise.
#
# Usage: scripts/reach.sh    (checks the tree it lives in; builds in
#                             build-reach/ at the root of that tree)
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-reach"
LOG="$BUILD/reach.log"
JOBS="$(nproc)"

build() {
  cmake -G "Unix Makefiles" -S "$ROOT/perfbench" -B "$BUILD" \
    -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG= \
    -DCMAKE_CXX_FLAGS="-O0 -fno-inline -fkeep-inline-functions -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections -DTEMPRIV_WERROR=OFF
  # perfbench_driver; the tree itself is EXCLUDE_FROM_ALL, so its shipped
  # directories are built one by one.
  cmake --build "$BUILD" -j "$JOBS"
  for dir in tools bench examples; do
    if [[ -f "$BUILD/tempriv/$dir/Makefile" ]]; then
      make -C "$BUILD/tempriv/$dir" -j "$JOBS"
    fi
  done
}
mkdir -p "$BUILD"
if ! build >"$LOG" 2>&1; then
  tail -n 40 "$LOG" >&2
  echo "reach: build failed (full log: $LOG)" >&2
  exit 2
fi

BINARIES=$(find "$BUILD" -maxdepth 1 -type f -executable -name perfbench_driver
           for dir in tools bench examples; do
             if [[ -d "$BUILD/tempriv/$dir" ]]; then
               find "$BUILD/tempriv/$dir" -maxdepth 1 -type f -executable
             fi
           done)
ARCHIVES=$(find "$BUILD/tempriv/src" -name 'libtempriv_*.a')
[[ -n "$BINARIES" && -n "$ARCHIVES" ]] ||
  { echo "reach: no binaries or no archives under $BUILD" >&2; exit 2; }

# shellcheck disable=SC2086
python3 - "$ROOT/scripts/reach_allow.txt" "$ROOT/tests" \
  3< <(nm -C --defined-only $ARCHIVES 2>/dev/null) \
  4< <(nm -C --defined-only $BINARIES 2>/dev/null) <<'PY'
import os, re, sys

OPERATOR_CHARS = set("<>=!+-*/%^&|~,")
QUALIFIERS = {"const", "volatile", "&", "&&", "noexcept"}


def strip(symbol):
    """The qualified name of a demangled function, without its parameter
    list, template arguments, return type or trailing qualifiers."""
    s = re.sub(r" \[clone [^]]*\]", "", symbol)
    s = s.replace("(anonymous namespace)", "{anon}").replace("[abi:cxx11]", "")
    out, depth, i = [], 0, 0
    while i < len(s):
        if depth == 0 and s.startswith("operator", i) and (i == 0 or s[i - 1] in ": "):
            j = i + len("operator")
            if s.startswith("()", j) or s.startswith("[]", j):
                j += 2
            elif j < len(s) and s[j] == " ":  # conversion, new, delete
                j = s.index("(", j) if "(" in s[j:] else len(s)
            else:
                while j < len(s) and s[j] in OPERATOR_CHARS:
                    j += 1
            out.append(s[i:j].replace(" ", "_"))
            i = j
            continue
        c = s[i]
        if c in "<(":
            depth += 1
        elif c in ">)":
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    tokens = "".join(out).split()
    while tokens and tokens[-1] in QUALIFIERS:
        tokens.pop()
    return tokens[-1] if tokens else ""


def is_noise(symbol, name):
    if "{lambda" in symbol:
        return True
    parts = name.split("::")
    return len(parts) >= 2 and (parts[-1] == parts[-2] or parts[-1].startswith("~"))


def function_names(stream):
    names = set()
    for line in stream:
        fields = line.rstrip("\n").split(" ", 2)
        if len(fields) != 3 or fields[1] not in ("T", "t", "W", "w"):
            continue
        name = strip(fields[2])
        if not is_noise(fields[2], name):
            names.add(name)
    return names


library = {n for n in function_names(os.fdopen(3)) if n.startswith("tempriv::")}
reached = function_names(os.fdopen(4))
unreached = library - reached

allow_path, tests_dir = sys.argv[1], sys.argv[2]
test_files = []
for dirpath, _, files in os.walk(tests_dir):
    test_files += [os.path.join(dirpath, f) for f in files if f.endswith((".cpp", ".h"))]


def test_source(test):
    """The text, comments removed, of the file that defines Suite.Test."""
    suite, name = test.split(".", 1)
    pattern = re.compile(r"TEST(_F|_P)?\(\s*%s\s*,\s*%s\s*\)" % (re.escape(suite), re.escape(name)))
    for path in test_files:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if pattern.search(text):
            return re.sub(r"//[^\n]*", "", text)
    return None


problems, allowed = [], set()
if os.path.exists(allow_path):
    with open(allow_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            where = "reach_allow.txt:%d" % lineno
            m = re.fullmatch(r"(\S+)\s+(?:item (4|7|10|13)|oracle ([A-Za-z_]\w*\.[A-Za-z_]\w*))", line)
            if not m:
                problems.append("malformed allow line: %s (%s)" % (line, where))
                continue
            name, test = m.group(1), m.group(3)
            if name not in unreached:
                problems.append("stale allow line: %s (%s; %s)" % (
                    name, where, "reached" if name in library else "not in the libraries"))
                continue
            allowed.add(name)
            if test is not None:
                source = test_source(test)
                member = name.rsplit("::", 1)[-1]
                if source is None:
                    problems.append("oracle test missing: %s (%s names %s)" % (name, where, test))
                elif not re.search(r"\b%s\b" % re.escape(member), source):
                    problems.append("oracle test does not mention it: %s (%s names %s)" % (
                        name, where, test))

for name in sorted(unreached - allowed):
    print("unreached: %s" % name)
for problem in problems:
    print(problem)
sys.stderr.write("reach: %d library functions, %d unreached, %d allowed, %d unresolved\n" % (
    len(library), len(unreached), len(allowed), len(unreached - allowed) + len(problems)))
sys.exit(1 if unreached - allowed or problems else 0)
PY
