#!/usr/bin/env bash
# Non-test library line count: the lines of every crates/*/src/**/*.rs
# file up to (not including) its first line matching ^#!?\[cfg\(test\)\],
# summed over the workspace. Benches, integration tests and vendored
# crates are outside the count. (The second awk sums the totals in case
# xargs splits the file list over several awk runs.)
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: this script's repository)

set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates/*/src -name '*.rs' -print0 \
  | sort -z \
  | xargs -0 awk '
      FNR == 1 { counting = 1 }
      /^#!?\[cfg\(test\)\]/ { counting = 0 }
      counting { total++ }
      END { print total + 0 }
    ' \
  | awk '{ sum += $1 } END { print sum + 0 }'
