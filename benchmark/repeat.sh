#!/bin/sh
# Runs the full benchmark twice on the same commit and holds the two result
# files against each other, both ways round: every workload x end-to-end
# metric within its bound, every count and stats_digest exactly equal.
# Extra arguments (--seed, --quick) go to both runs.
set -eu
dir=$(dirname "$0")
bench() {
    cargo run --release --offline --quiet --manifest-path "$dir/Cargo.toml" -- "$@"
}
bench "$@" --out "$dir/out/repeat-a.json"
bench "$@" --out "$dir/out/repeat-b.json"
bench compare "$dir/out/repeat-a.json" "$dir/out/repeat-b.json"
bench compare "$dir/out/repeat-b.json" "$dir/out/repeat-a.json"
