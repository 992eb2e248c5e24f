#!/usr/bin/env bash
# Figure goldens: runs every fig*/tab* binary and scenario_faults at
# `--quick --jobs 2` and writes each one's stdout and `--out` CSV as
# <dir>/<bin>.txt and <dir>/<bin>.csv.
#
#   bash ci/figures.sh <bin-dir> <out-dir>
#
# Check against the committed goldens:
#   bash ci/figures.sh target/release /tmp/figures && diff -u -r ci/figures /tmp/figures
# Regenerate them (a change that moves a printed byte on purpose):
#   bash ci/figures.sh target/release ci/figures
set -euo pipefail
bin_dir=${1:?usage: ci/figures.sh <bin-dir> <out-dir>}
out_dir=${2:?usage: ci/figures.sh <bin-dir> <out-dir>}
mkdir -p "$out_dir"
for exe in "$bin_dir"/fig[0-9][0-9]_* "$bin_dir"/tab[0-9][0-9]_* "$bin_dir"/scenario_faults; do
  case "$exe" in *.d) continue ;; esac
  name=$(basename "$exe")
  "$exe" --quick --jobs 2 --out "$out_dir/$name.csv" > "$out_dir/$name.txt"
done
