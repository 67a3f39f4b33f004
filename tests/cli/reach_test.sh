#!/usr/bin/env bash
# scripts/reach.sh on a toy tree laid out like this repository: one library
# of four tempriv:: functions, one tools/ binary and a perfbench driver.
#   reached    the tools/ binary calls it             -> not reported
#   unreached  nothing calls it, no allow line        -> reported
#   pending    allowed as `item 4`                    -> not reported
#   peek       allowed as an oracle of Toy.Peeks, whose file never
#              mentions it                            -> reported
# The script must exit 1 and report exactly `unreached` and `peek`.
#
# Usage: reach_test.sh <scripts/reach.sh>

set -u
[ $# -eq 1 ] || { echo "usage: reach_test.sh <scripts/reach.sh>" >&2; exit 2; }
TOY=$(mktemp -d)
trap 'rm -rf "$TOY"' EXIT
mkdir -p "$TOY/scripts" "$TOY/src" "$TOY/tools" "$TOY/perfbench" "$TOY/tests"
cp "$1" "$TOY/scripts/reach.sh"

cat >"$TOY/CMakeLists.txt" <<'CMAKE'
cmake_minimum_required(VERSION 3.16)
project(toy LANGUAGES CXX)
add_subdirectory(src)
add_subdirectory(tools)
CMAKE
cat >"$TOY/src/CMakeLists.txt" <<'CMAKE'
add_library(tempriv_toy STATIC toy.cpp)
target_include_directories(tempriv_toy PUBLIC ${CMAKE_CURRENT_SOURCE_DIR})
CMAKE
cat >"$TOY/src/toy.h" <<'CPP'
namespace tempriv::toy {
int reached(int x);
int unreached(int x);
int pending(int x);
int peek(int x);
}  // namespace tempriv::toy
CPP
cat >"$TOY/src/toy.cpp" <<'CPP'
#include "toy.h"
namespace tempriv::toy {
int reached(int x) { return x + 1; }
int unreached(int x) { return x + 2; }
int pending(int x) { return x + 3; }
int peek(int x) { return x + 4; }
}  // namespace tempriv::toy
CPP
cat >"$TOY/tools/CMakeLists.txt" <<'CMAKE'
add_executable(toy_tool main.cpp)
target_link_libraries(toy_tool PRIVATE tempriv_toy)
CMAKE
cat >"$TOY/tools/main.cpp" <<'CPP'
#include "toy.h"
int main() { return tempriv::toy::reached(1) == 2 ? 0 : 1; }
CPP
cat >"$TOY/perfbench/CMakeLists.txt" <<'CMAKE'
cmake_minimum_required(VERSION 3.16)
project(toy_perfbench LANGUAGES CXX)
add_subdirectory("${CMAKE_CURRENT_SOURCE_DIR}/.." tempriv EXCLUDE_FROM_ALL)
add_executable(perfbench_driver driver.cpp)
CMAKE
echo 'int main() { return 0; }' >"$TOY/perfbench/driver.cpp"
cat >"$TOY/tests/toy_test.cpp" <<'CPP'
TEST(Toy, Peeks) { EXPECT_EQ(1 + 1, 2); }
CPP
cat >"$TOY/scripts/reach_allow.txt" <<'ALLOW'
# a comment line
tempriv::toy::pending  item 4
tempriv::toy::peek     oracle Toy.Peeks
ALLOW

"$TOY/scripts/reach.sh" >"$TOY/out.txt" 2>"$TOY/err.txt"
STATUS=$?
FAILURES=0
fail() { echo "FAIL: $1" >&2; FAILURES=$((FAILURES + 1)); }
[ "$STATUS" -eq 1 ] || fail "exit status $STATUS, want 1"
REPORTED=$(sed -E 's/^[^:]*: ([^ ]+).*/\1/' "$TOY/out.txt" | sort | tr '\n' ' ')
[ "$REPORTED" = "tempriv::toy::peek tempriv::toy::unreached " ] ||
  fail "reported '$REPORTED', want peek and unreached"
grep -q '^unreached: tempriv::toy::unreached$' "$TOY/out.txt" ||
  fail "unreached is not reported as unreached"
grep -q '^oracle test does not mention it: tempriv::toy::peek ' "$TOY/out.txt" ||
  fail "peek is not reported as a stale oracle"
if [ "$FAILURES" -ne 0 ]; then
  echo "--- stdout"; cat "$TOY/out.txt"; echo "--- stderr"; cat "$TOY/err.txt"
  [ -f "$TOY/build-reach/reach.log" ] && tail -n 20 "$TOY/build-reach/reach.log"
  exit 1
fi
echo "reach_test: ok"
