#!/usr/bin/env bash
# Verifies the tree is clang-format clean against the checked-in
# .clang-format. Skips gracefully (exit 0 with a notice) when clang-format
# is not installed, so local builds on minimal images are not blocked; CI
# installs clang-format and gets the real check.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

fmt="${CLANG_FORMAT:-clang-format}"
if ! command -v "$fmt" >/dev/null 2>&1; then
  echo "check_format: $fmt not found; skipping (install clang-format to run)"
  exit 0
fi

mapfile -t files < <(git ls-files \
  'src/**/*.cpp' 'src/**/*.hpp' \
  'tests/**/*.cpp' 'tests/**/*.hpp' \
  'bench/ssr_bench/src/*.cpp' 'examples/*.cpp' \
  'tools/scenario_runner/*.cpp' 'tools/ssr_node/*.cpp')

bad=0
for f in "${files[@]}"; do
  if ! "$fmt" --dry-run -Werror "$f" >/dev/null 2>&1; then
    echo "check_format: needs formatting: $f"
    bad=1
  fi
done

if [ "$bad" -ne 0 ]; then
  echo "check_format: run '$fmt -i' on the files above" >&2
  exit 1
fi
echo "check_format: OK (${#files[@]} files)"
