#!/usr/bin/env bash
# Sweep identities that must hold byte for byte; run offline.
#
#   scripts/check_sweeps.sh DIR
#
# Writes the sweep CSVs under DIR and cmps them:
#   1. a parallel sweep equals the serial one (fig7, fig11 at --jobs 1, 2, 3);
#   2. a scenario file that restates a preset gives the preset's CSV;
#   3. a sweep of some of the scans gives those rows of a sweep of all six.
# eigencount must be importable (installed, or PYTHONPATH=src).
set -euo pipefail

dir=${1:?usage: scripts/check_sweeps.sh DIR}
mkdir -p "$dir"

sweep() {
  python -m eigencount sweep --trials 5 --seed 3 "$@"
}

# fig7 is the p > n preset: rank-deficient spectra and non-positive fitted
# strengths.  Each preset has 3 points, so 5 trials make 15 items: blocks of
# 8 and 7 at --jobs 2, and two workers at --jobs 3.
for preset in fig7 fig11; do
  for jobs in 1 2 3; do
    sweep --preset $preset --jobs $jobs --out "$dir/$preset-jobs$jobs.csv"
  done
  cmp "$dir/$preset-jobs1.csv" "$dir/$preset-jobs2.csv"
  cmp "$dir/$preset-jobs1.csv" "$dir/$preset-jobs3.csv"
done

# A file that restates a preset's geometry sweeps the same points: fig4 as
# the preset plus its own p_list, fig11 spelled out in full.
printf 'preset = fig4\np_list = 40, 60, 80\n' > "$dir/fig4.txt"
printf 'p = 60\nn_list = 30, 60, 120\nlambda = 15, 12, 10, 10, 8, 6, 5, 4, 4, 2.5\n' > "$dir/fig11.txt"
for preset in fig4 fig11; do
  sweep --preset $preset --out "$dir/$preset-preset.csv"
  sweep "$dir/$preset.txt" --out "$dir/$preset-file.csv"
  cmp "$dir/$preset-preset.csv" "$dir/$preset-file.csv"
done

# Sweeps count rmt, srmt and sns in one pass over k; a sweep of some of them
# gives the rows of a sweep of all six.
for preset in fig7 fig11; do
  sweep --preset $preset --out "$dir/$preset-all.csv"
  for methods in rmt srmt sns "rmt, sns"; do
    sweep --preset $preset --methods "$methods" --out "$dir/$preset-subset.csv"
    rows="^(sweep_value|[0-9]+,(${methods//, /|}),)"
    cmp "$dir/$preset-subset.csv" <(grep -E "$rows" "$dir/$preset-all.csv")
  done
done

echo "sweep checks passed"
