#!/usr/bin/env sh
# Linker gate: every out-of-line storsubsim:: function compiled into the src/
# libraries must be linked into at least one shipped program, or be named in
# tools/unlinked_functions.allow together with the test that needs it.
#
#   tools/unlinked_functions.sh [build-dir]     (default: build-unlinked)
#
# Builds every program the repository ships (storsubsim, storsim_lint, the
# bench harnesses, the examples and perfbench) at -O0 -fno-inline
# -ffunction-sections and links them with -Wl,--gc-sections, so a function
# survives in a program only if something it runs can reach it. Then it
# compares `nm -C --defined-only` over the src/ archives against the union
# of those programs. Exits 1 when an unlinked function is missing from the
# allowlist, when an allowlist entry no longer matches an unlinked function,
# or when an entry names a test that does not exist under tests/.
#
# Allowlist format (one function per line, # starts a comment):
#   <qualified name, no parameter list> <Suite.Test that needs it>
# An entry matches every overload of that name.
set -eu

cd "$(dirname "$0")/.."
BUILD=${1:-build-unlinked}
ALLOW=tools/unlinked_functions.allow
FLAGS="-O0 -fno-inline -ffunction-sections"
LDFLAGS="-Wl,--gc-sections"
JOBS=$(nproc)

echo "configuring $BUILD ($FLAGS, $LDFLAGS)"
cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=None -DCMAKE_CXX_FLAGS="$FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$LDFLAGS" -DSTORSUBSIM_BUILD_TESTS=OFF \
  -DSTORSUBSIM_BUILD_BENCH=ON -DSTORSUBSIM_BUILD_EXAMPLES=ON > /dev/null
cmake --build "$BUILD" -j "$JOBS" > /dev/null
cmake -S perfbench -B "$BUILD/perfbench" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS="$LDFLAGS" > /dev/null
cmake --build "$BUILD/perfbench" --target perfbench -j "$JOBS" > /dev/null

WORK=$BUILD/unlinked
mkdir -p "$WORK"

# The shipped programs: every executable the root build makes outside tests/,
# plus perfbench.
find "$BUILD/tools" "$BUILD/bench" "$BUILD/examples" -maxdepth 1 -type f \
  -perm -u+x | LC_ALL=C sort > "$WORK/programs.txt"
echo "$BUILD/perfbench/perfbench" >> "$WORK/programs.txt"
programs=$(wc -l < "$WORK/programs.txt")

# storsubsim:: text symbols, with the [abi:cxx11] tag dropped so allowlist
# names stay readable. `nm -C` prints "<addr> <type> <name>"; names contain
# spaces, so everything after the type column is the name.
text_symbols='$2 ~ /^[Tt]$/ {
  name = $0
  sub(/^[^ ]* [^ ]* /, "", name)
  gsub(/\[abi:cxx11\]/, "", name)
  if (name ~ /^storsubsim::/) print (prefix name)
}'

: > "$WORK/linked.raw"
while read -r program; do
  nm -C --defined-only "$program" | awk -v prefix= "$text_symbols" >> "$WORK/linked.raw"
done < "$WORK/programs.txt"
LC_ALL=C sort -u "$WORK/linked.raw" > "$WORK/linked.txt"

# "<object>\t<symbol>" for every function the src/ archives define; nm
# heads each member's symbols with a "<object>:" line.
: > "$WORK/archive.raw"
for archive in $(find "$BUILD/src" -name '*.a' | LC_ALL=C sort); do
  nm -C --defined-only "$archive" |
    awk -v prefix= '/:$/ { object = substr($0, 1, length($0) - 1); next }
      { prefix = object "\t" } '"$text_symbols" >> "$WORK/archive.raw"
done
LC_ALL=C sort -u "$WORK/archive.raw" > "$WORK/archive.txt"

# Unlinked = defined in an archive, linked into no program.
awk -F '\t' 'NR == FNR { linked[$0] = 1; next } !($2 in linked)' \
  "$WORK/linked.txt" "$WORK/archive.txt" > "$WORK/unlinked.txt"

# Split the unlinked set by the allowlist. Prints the offenders and the stale
# entries, and exits 1 when there is either.
status=0
awk -F '\t' '
  FILENAME == ARGV[1] {
    sub(/#.*/, "")
    if (NF == 0 || $0 ~ /^[ \t]*$/) next
    split($0, field, /[ \t]+/)
    allow[field[1]] = field[2]
    used[field[1]] = 0
    next
  }
  {
    name = $2
    matched = 0
    for (entry in allow) {
      if (index(name, entry "(") == 1) { used[entry] = 1; matched = 1 }
    }
    if (!matched) { print "unlinked: " name "  [" $1 "]"; bad = 1 }
  }
  END {
    for (entry in used) {
      if (!used[entry]) { print "stale allowlist entry (linked or gone): " entry; bad = 1 }
    }
    exit bad
  }' "$ALLOW" "$WORK/unlinked.txt" || status=1

# Every allowlist entry must name a test that exists.
sed -e 's/#.*//' "$ALLOW" | awk 'NF >= 1 { print $1, $2 }' |
  while read -r entry test; do
    suite=${test%%.*}
    case_name=${test#*.}
    if [ -z "$test" ] || [ "$suite" = "$test" ]; then
      echo "allowlist entry without a Suite.Test: $entry"
      exit 1
    fi
    if ! grep -rqE "TEST(_F|_P)?\\($suite, *$case_name\\)" tests; then
      echo "allowlist entry $entry names a missing test: $test"
      exit 1
    fi
  done || status=1

unlinked=$(wc -l < "$WORK/unlinked.txt")
objects=$(cut -f1 "$WORK/unlinked.txt" | LC_ALL=C sort -u | wc -l)
echo "$programs programs; $unlinked unlinked storsubsim:: functions in $objects object files" \
  "(lists under $WORK/)"
if [ "$status" -ne 0 ]; then
  echo "FAIL: delete the functions above, or allowlist each with the test that needs it ($ALLOW)"
  exit 1
fi
echo "every unlinked function is an allowlisted test seam or oracle"
