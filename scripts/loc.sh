#!/usr/bin/env bash
# Prints the non-blank, non-comment line count of each src/ subdirectory and
# the total: the `src/` size ROADMAP.md tracks next to the perf numbers.
#
# Usage: scripts/loc.sh [src-dir]    (default: src/ of this checkout)
#
# A line counts unless it is blank, a whole-line // comment, or inside a
# /* ... */ block. Code followed by a trailing comment counts.
set -euo pipefail

cd "$(dirname "$0")/.."
SRC="${1:-src}"

count_lines() {
  awk '
    {
      line = $0
      if (in_block) {
        end = index(line, "*/")
        if (end == 0) next
        line = substr(line, end + 2)
        in_block = 0
      }
      sub(/^[ \t]+/, "", line)
      if (line == "" || substr(line, 1, 2) == "//") next
      if (substr(line, 1, 2) == "/*") {
        rest = substr(line, 3)
        end = index(rest, "*/")
        if (end == 0) { in_block = 1; next }
        rest = substr(rest, end + 2)
        sub(/^[ \t]+/, "", rest)
        if (rest == "" || substr(rest, 1, 2) == "//") next
      }
      n++
    }
    END { print n + 0 }
  ' "$@"
}

total=0
printf '%-12s %7s\n' "dir" "lines"
for dir in "${SRC}"/*/; do
  name="$(basename "${dir}")"
  mapfile -t files < <(find "${dir}" -type f \( -name '*.h' -o -name '*.cc' -o -name '*.inc' \) | sort)
  if [[ ${#files[@]} -eq 0 ]]; then
    continue
  fi
  lines="$(count_lines "${files[@]}")"
  total=$((total + lines))
  printf '%-12s %7d\n' "${name}" "${lines}"
done
printf '%-12s %7d\n' "total" "${total}"
