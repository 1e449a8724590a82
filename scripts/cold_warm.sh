#!/usr/bin/env bash
# Cold/warm cache determinism check, shared by the CI smoke jobs.
#
#   cold_warm.sh COLD_SUMMARY WARM_SUMMARY COLD_ARTIFACT WARM_ARTIFACT CMD...
#
# Runs CMD twice against one cache directory — every "{}" in CMD becomes
# "cold" on the first pass and "warm" on the second — and requires that
# the cold pass prints COLD_SUMMARY (everything simulated), the warm pass
# prints WARM_SUMMARY (everything answered from the cache), and the two
# artifacts are byte-identical.
set -euo pipefail
if [ "$#" -lt 5 ]; then
  sed -n '2,10p' "$0" >&2
  exit 2
fi
cold_summary=$1 warm_summary=$2 cold_artifact=$3 warm_artifact=$4
shift 4
"${@//\{\}/cold}" | tee /dev/stderr | grep -F "$cold_summary" >/dev/null
"${@//\{\}/warm}" | tee /dev/stderr | grep -F "$warm_summary" >/dev/null
cmp "$cold_artifact" "$warm_artifact"
