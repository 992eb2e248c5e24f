#!/usr/bin/env bash
# Figure outputs: runs every fig*/tab* binary and scenario_faults at
# `--jobs <jobs>` (default 2) and `<scale>` (`quick`, the default, or
# `default`) and writes each one's stdout and `--out` CSV as
# <dir>/<bin>.txt and <dir>/<bin>.csv. Output is byte-identical under any
# worker count, so every jobs value must match the same files.
#
#   bash ci/figures.sh <bin-dir> <out-dir> [jobs] [quick|default]
#
# Two committed trees come from it, and CI diffs both:
#   ci/figures/  quick-scale goldens (~25 s on 2 cores at --jobs 2)
#   results/     the default-scale numbers EXPERIMENTS.md quotes
#                (~4 min on 2 cores at --jobs 2)
# Check them:
#   bash ci/figures.sh target/release /tmp/figures && diff -u -r ci/figures /tmp/figures
#   bash ci/figures.sh target/release /tmp/results 2 default && diff -u -r results /tmp/results
# Regenerate them (a change that moves a printed byte on purpose):
#   bash ci/figures.sh target/release ci/figures
#   bash ci/figures.sh target/release results 2 default
set -euo pipefail
usage="usage: ci/figures.sh <bin-dir> <out-dir> [jobs] [quick|default]"
bin_dir=${1:?$usage}
out_dir=${2:?$usage}
jobs=${3:-2}
case "${4:-quick}" in
  quick) scale=--quick ;;
  default) scale= ;;
  *) echo "$usage" >&2; exit 2 ;;
esac
mkdir -p "$out_dir"
for exe in "$bin_dir"/fig[0-9][0-9]_* "$bin_dir"/tab[0-9][0-9]_* "$bin_dir"/scenario_faults; do
  case "$exe" in *.d) continue ;; esac
  name=$(basename "$exe")
  # $scale is empty at default scale and must then expand to no argument.
  # shellcheck disable=SC2086
  "$exe" $scale --jobs "$jobs" --out "$out_dir/$name.csv" > "$out_dir/$name.txt"
done
