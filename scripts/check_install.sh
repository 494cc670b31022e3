#!/usr/bin/env bash
# Checks on a copy of eigencount installed without -e, run from outside the
# source checkout; run offline.
#
#   pip install --no-deps --target SITE . && scripts/check_install.sh SITE
#
#   1. `eigencount tw --alpha 0.005` runs without importing scipy: the
#      Tracy-Widom table (_tw_cdf.bin) was installed as package data.
#   2. A seeded snapshot draw loads scipy's erfc kernel alone: scipy.special
#      is not imported, so the kernel loader did not fall back to it.
# SITE must hold the package and its console script (SITE/bin/eigencount);
# numpy and scipy are found as usual.
set -euo pipefail

site=$(cd "${1:?usage: scripts/check_install.sh SITE}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
export PYTHONPATH="$site"

PYTHONPROFILEIMPORTTIME=1 "$site/bin/eigencount" tw --alpha 0.005 2> imports.txt
if grep -E '\| +scipy(\.|$)' imports.txt; then
  echo "eigencount tw imported scipy" >&2
  exit 1
fi

python - "$site" <<'PY'
import hashlib
import sys

import numpy as np

import eigencount
from eigencount.simulation import generate_snapshots, trial_rng

if not eigencount.__file__.startswith(sys.argv[1]):
    sys.exit(f"eigencount was imported from {eigencount.__file__}, not from the install")
model = eigencount.PopulationModel(np.array([12.0, 6.0, 4.0]), 1.0, 40)
x = generate_snapshots(model, 80, trial_rng(3, 0)).data
if "scipy.special" in sys.modules:
    sys.exit("the draw imported scipy.special: the erfc kernel loader fell back")
print("draw sha256", hashlib.sha256(x.astype("<f8").tobytes()).hexdigest())
PY
