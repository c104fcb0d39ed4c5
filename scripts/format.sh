#!/usr/bin/env bash
# clang-format wrapper over the repo's C++ sources.
#
#   scripts/format.sh               # format changed files in place
#   scripts/format.sh --check       # fail if a changed file needs formatting
#   scripts/format.sh --all         # cover every tracked source file
#   scripts/format.sh --base REF    # diff against REF (default: merge-base
#                                   # with origin/main, else HEAD~1)
#
# "Changed files" are taken from git so the lint CI job only judges the
# files a PR touches, not historic formatting drift. When clang-format is
# not installed the script warns and exits 0 so local verify.sh runs
# don't require it (CI installs it).
set -euo pipefail
cd "$(dirname "$0")/.."

check=0 all=0 base=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --check) check=1 ;;
    --all) all=1 ;;
    --base)
      base="$2"
      shift
      ;;
    -h|--help)
      grep '^#' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "format.sh: unknown argument '$1'" >&2
      exit 2
      ;;
  esac
  shift
done

clang_format="$(command -v clang-format || true)"
if [[ -z "$clang_format" ]]; then
  echo "format.sh: clang-format not installed; skipping (CI runs it)" >&2
  exit 0
fi

source_filter() { grep -E '\.(cpp|hpp|h)$' | grep -v '^tests/satlint_fixtures/' || true; }

if [[ "$all" == 1 ]]; then
  files="$(git ls-files 'src/**' 'examples/**' 'tests/**' 'tools/**' | source_filter)"
else
  if [[ -z "$base" ]]; then
    base="$(git merge-base HEAD origin/main 2>/dev/null || git rev-parse HEAD~1 2>/dev/null || true)"
  fi
  if [[ -n "$base" ]]; then
    files="$( (git diff --name-only "$base" -- ; git diff --name-only --cached ; git ls-files --others --exclude-standard) | sort -u | source_filter)"
  else
    files="$(git ls-files 'src/**' 'examples/**' 'tests/**' 'tools/**' | source_filter)"
  fi
fi

if [[ -z "$files" ]]; then
  echo "format.sh: no source files to check"
  exit 0
fi

status=0
while IFS= read -r f; do
  [[ -f "$f" ]] || continue
  if [[ "$check" == 1 ]]; then
    if ! "$clang_format" --dry-run --Werror "$f" > /dev/null 2>&1; then
      echo "needs formatting: $f"
      status=1
    fi
  else
    "$clang_format" -i "$f"
  fi
done <<< "$files"

if [[ "$check" == 1 && "$status" != 0 ]]; then
  echo "format.sh: run scripts/format.sh to fix" >&2
fi
exit "$status"
