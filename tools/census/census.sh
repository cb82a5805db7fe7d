#!/usr/bin/env bash
# Caller census of the itb library: which functions production code reaches,
# which only tests reach, and which nothing reaches.
#
# Usage: tools/census/census.sh <build-dir> [--list]
#
# Builds the library, tests, examples and every bench (`bench_all`), plus
# the two perfbench binaries, at -O0 with -ffunction-sections and links them
# with --gc-sections, so each executable keeps exactly the itb:: functions
# it can reach. -fkeep-inline-functions makes every library object emit the
# inline functions its headers define (accessors, constexpr helpers), so a
# header-inline function with no caller shows up like an out-of-line one.
# Members the compiler writes itself (implicit X(), X(X&&) and ~X()) and
# lambdas are not counted: a lambda is part of the function that defines
# it, and a constant-initialised static never calls its initialiser at run
# time.
# "Production" is every bench, example and perfbench binary.
# It then compares the itb:: text symbols defined in libitb.a with those
# the executables keep and prints:
#
#   symbols       itb:: text symbols in libitb.a
#   test_only     of those, kept by a test binary and by no production one
#   no_caller     of those, kept by no binary at all
#   library_lines lines in src/*/*.{h,cpp} and src/dsp/simd/*
#   test_lines    lines in tests/*.cpp and tests/*.h
#
# --list also prints the test-only and no-caller symbols. Exits 1 when any
# symbol has no caller. JOBS sets the build parallelism (default 3).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <build-dir> [--list]" >&2
  exit 2
fi
B=$(mkdir -p "$1" && cd "$1" && pwd)
LIST=${2:-}
ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
JOBS=${JOBS:-3}
export LC_ALL=C

FL=(-G Ninja -DCMAKE_BUILD_TYPE=Debug
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fkeep-inline-functions"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections" -DITB_WERROR=OFF)
cmake -S "$ROOT" -B "$B/main" "${FL[@]}" > "$B/configure.log"
cmake --build "$B/main" --target all bench_all -j "$JOBS" > "$B/build.log"
cmake -S "$ROOT/perfbench" -B "$B/pb" "${FL[@]}" >> "$B/configure.log"
cmake --build "$B/pb" -j "$JOBS" >> "$B/build.log"

# Defined text symbols (strong, local or weak) in the itb namespace, less
# lambdas and the compiler-generated members: an inline (weak or local)
# C::C(), C::C(C&&) or C::~C(). A function is in the namespace when its own
# mangled name is (`_ZN3itb...`, or `_ZNK3itb...` and the other qualified
# member forms), so a std:: template instantiated on an itb:: type (say
# std::forward<itb::...>) is not counted and an itb:: template with a
# non-itb:: return type (void itb::core::parallel_for<...>) is; names are
# demangled only after that choice. A lambda defined in a function is a
# local entity (`_ZZ...`) and fails the prefix; one at namespace scope is
# dropped by its closure members (`{lambda(...)#N}::operator()`, `_FUN`),
# while a template instantiated on a lambda type stays.
syms() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN[KVRO]*3itb/ { print $2, $3 }' |
    c++filt |
    awk '{
      t = $1; sub(/^[^ ]+ /, "")
      if ($0 ~ /[}]::(operator|_FUN)/) next
      if (t != "T" && match($0, /::~?[A-Za-z_0-9]+[(]/)) {
        cls = $0; sub(/::~?[A-Za-z_0-9]+[(].*$/, "", cls); sub(/^.*::/, "", cls)
        if ($0 ~ ("::~?" cls "[(][)]$") ||
            $0 ~ ("::" cls "[(].*::" cls "&&[)]$")) next
      }
      print
    }' | sort -u
}
executables() { find "$@" -maxdepth 1 -type f -executable; }

syms "$B/main/libitb.a" > "$B/lib.txt"
# shellcheck disable=SC2046
syms $(executables "$B/main/bench" "$B/main/examples") \
  "$B/pb/itb_perfbench" "$B/pb/itb_perfbench_traced" > "$B/prod.txt"
# shellcheck disable=SC2046
syms $(executables "$B/main/tests") > "$B/test.txt"
comm -23 "$B/lib.txt" "$B/prod.txt" | comm -12 - "$B/test.txt" > "$B/test_only.txt"
comm -23 "$B/lib.txt" "$B/prod.txt" | comm -23 - "$B/test.txt" > "$B/no_caller.txt"

cd "$ROOT"
echo "symbols       $(wc -l < "$B/lib.txt")"
echo "test_only     $(wc -l < "$B/test_only.txt")"
echo "no_caller     $(wc -l < "$B/no_caller.txt")"
echo "library_lines $(cat src/*/*.h src/*/*.cpp src/dsp/simd/* | wc -l)"
echo "test_lines    $(cat tests/*.cpp tests/*.h | wc -l)"
if [[ "$LIST" == "--list" ]]; then
  echo "--- test-only"
  cat "$B/test_only.txt"
  echo "--- no caller"
  cat "$B/no_caller.txt"
fi
if [[ -s "$B/no_caller.txt" ]]; then
  echo "itb:: functions with no caller at all:" >&2
  cat "$B/no_caller.txt" >&2
  exit 1
fi
