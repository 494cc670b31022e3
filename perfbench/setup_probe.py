"""Set-up time probe: a fresh interpreter imports eigencount and finishes one
warm-up estimate per method, then prints the seconds that took.

    python3 perfbench/setup_probe.py <src-dir> <seed>
"""

import os
import sys
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(src: str, seed: int) -> float:
    start = perf_counter()
    sys.path.insert(0, src)
    import numpy as np
    import eigencount

    rng = np.random.default_rng(seed)
    data = rng.standard_normal((40, 80))
    data[0] *= 3.0
    spectrum = eigencount.eig_sym_desc(eigencount.sample_covariance(data), 80)
    for method in eigencount.METHOD_ORDER:
        eigencount.estimate(spectrum, method)
    return perf_counter() - start


if __name__ == "__main__":
    print(main(sys.argv[1], int(sys.argv[2])))
