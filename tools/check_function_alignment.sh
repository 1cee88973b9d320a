#!/usr/bin/env sh
# Checks that every function in each given static library starts on a
# 64-byte boundary, i.e. that the library was built with
# -falign-functions=64 (src/CMakeLists.txt explains which libraries pin it
# and why).
#
# Usage: check_function_alignment.sh <library.a>...
#
# In an archive, nm prints each symbol's offset inside its object file's
# section; the sections themselves are at least 64-byte aligned under the
# flag, so a 64-byte multiple there is a 64-byte multiple in the binary.
# Functions GCC places in .text.unlikely are exempt: it does not align code
# it expects never to run (split-off `.cold` parts, destructors reached only
# from exception paths), and that code is not what the pin is for.
set -eu

check_one() {
  lib="$1"
  [ -f "$lib" ] || { echo "no such library: $lib" >&2; return 1; }

  # sysv format: name|value|class|type|size|line|section
  symbols=$(nm --defined-only -f sysv "$lib" | awk -F'|' '
    { for (i = 1; i <= NF; ++i) gsub(/ /, "", $i) }
    $4 == "FUNC" && $7 != ".text.unlikely" { print $2, $7, $1 }')
  total=$(printf '%s\n' "$symbols" | grep -c . || true)
  [ "$total" -gt 0 ] || { echo "no functions in $lib" >&2; return 1; }

  # A multiple of 64 ends in hex 00, 40, 80 or c0.
  misaligned=$(printf '%s\n' "$symbols" | awk '$1 !~ /[048cC]0$/')
  if [ -n "$misaligned" ]; then
    count=$(printf '%s\n' "$misaligned" | grep -c .)
    echo "FAIL: $count of $total functions in $lib are not 64-byte aligned" \
      "(is -falign-functions=64 still set?), e.g.:" >&2
    printf '%s\n' "$misaligned" | head -n 10 >&2
    return 1
  fi
  echo "OK: all $total functions in $lib start on a 64-byte boundary"
}

[ "$#" -gt 0 ] || { echo "usage: $0 <library.a>..." >&2; exit 1; }

status=0
for lib in "$@"; do
  check_one "$lib" || status=1
done
exit "$status"
