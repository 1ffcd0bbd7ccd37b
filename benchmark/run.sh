#!/usr/bin/env bash
# Build the benchmark package from source and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result JSON
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--sets K] [--out FILE]
#       every workload (K sets), every metric by name with its unit, and a
#       stamped result file under benchmark/out/
#   benchmark/run.sh compare <a.json> <b.json>
#       judge result file b against a; non-zero exit on a regression
#
# Paths in results are relative to the checkout root, so run from anywhere:
# the script moves there first. Offline build, path dependencies only.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# One malloc arena: with glibc's per-thread arenas the remote workloads'
# peak RSS depends on which arena each server thread draws (42-51 MiB for
# the same run; 41.5-41.6 MiB with one arena). One thread works at a time,
# so the arena is never contended.
export MALLOC_ARENA_MAX=1
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark" "$@"
