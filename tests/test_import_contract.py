"""What a fresh interpreter loads: `import eigencount` loads numpy and the
package only; scipy's erfc kernel comes with the first snapshot draw,
without the scipy.special package, and multiprocessing with the first
parallel sweep, which starts its worker processes (forked on Linux, the
platform's default start method elsewhere) after it has loaded the kernel.

Every check runs in a new interpreter, since the test session itself has
long imported scipy and multiprocessing.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigencount as ec

SRC = str(Path(ec.__file__).resolve().parents[1])
HEAVY = ("scipy", "multiprocessing")

# sha256 of the little-endian float64 bytes of the draw in DRAW.
DRAW_SHA256 = "dd3c275a746c1c6561760117ae14f4d9d06854e431e65e5fa813d13f66a19e17"

# argv[1], if given, names the kernel module to load in place of scipy's:
# a module that does not exist forces the fallback to scipy.special.
DRAW = """
import hashlib, json, sys
import numpy as np
from eigencount import PopulationModel, normal
from eigencount.simulation import generate_snapshots, trial_rng
normal._KERNEL = sys.argv[1] if len(sys.argv) > 1 else normal._KERNEL
before = "scipy.special" in sys.modules
model = PopulationModel(np.array([12.0, 6.0, 4.0]), 1.0, 40)
x = generate_snapshots(model, 80, trial_rng(3, 0)).data
print(json.dumps({"before": before, "after": "scipy.special" in sys.modules,
                  "scipy_modules": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "kernel_loaded": normal._erfc_array.cache_info().currsize == 1,
                  "sha256": hashlib.sha256(x.astype("<f8").tobytes()).hexdigest()}))
"""

# After the kernel load, `import scipy.special` works as usual: its erfc has
# the kernel's bits, and the package has its own submodule.
LATE_IMPORT = """
import json
import numpy as np
from eigencount import normal
kernel = normal._erfc_array()
import scipy.special
x = np.linspace(-27.0, 27.0, 5401)
print(json.dumps({"same_bits": kernel(x).tobytes() == scipy.special.erfc(x).tobytes(),
                  "submodule": hasattr(scipy.special, "_special_ufuncs")}))
"""

# Minor page faults per fig4 request after the first draw, with one BLAS
# thread as in the benchmark.
FIG4_FAULTS = """
import resource
import eigencount as ec
ec.run_sweep(ec.preset_scenario("fig4", trials=2))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(1, 11):
    ec.run_sweep(ec.preset_scenario("fig4", trials=2, base_seed=seed))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""

ESTIMATE_PATH = """
import numpy as np
import eigencount as ec
x = np.random.default_rng(0).standard_normal((20, 40))
x[0] *= 3.0
spectrum = ec.eig_sym_desc(ec.sample_covariance(x), 40)
for estimator in (ec.estimate_aic, ec.estimate_mdl, ec.estimate_modified_aic,
                  ec.estimate_rmt, ec.estimate_signal_search, ec.estimate_sns):
    estimator(spectrum)
"""

SWEEP = """
import json, sys
import eigencount as ec
from eigencount import normal, simulation
launched = []
start_workers = simulation._start_workers
def recording_start(blocks):
    launched.append(normal._erfc_array.cache_info().currsize == 1)
    return start_workers(blocks)
simulation._start_workers = recording_start
spec = ec.ScenarioSpec(lambdas=(2.5,), p_list=(16,), gamma=0.5, trials=2,
                       methods=("rmt",))
csv = ec.run_sweep(spec, jobs=int(sys.argv[1])).to_csv_string()
print(json.dumps({"multiprocessing_loaded": "multiprocessing" in sys.modules,
                  "launched": launched, "csv": csv}))
"""


def fresh_python(*args, cwd=None, **env) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env), cwd=cwd,
                          check=True, timeout=120)


def imported(*args, cwd=None) -> set[str]:
    """Every module a fresh `python -X importtime <args>` imports."""
    done = fresh_python("-X", "importtime", *args, cwd=cwd)
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


def heavy_modules(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m.split(".")[0] in HEAVY)


def test_estimate_path_loads_neither_scipy_nor_pool():
    modules = imported("-c", ESTIMATE_PATH)
    assert "eigencount.estimators" in modules
    assert heavy_modules(modules) == []


@pytest.mark.parametrize("command", [
    ("tw", "--alpha", "0.005"),
    ("estimate", "snaps.csv", "--input-kind", "snapshots"),
    ("trace", "snaps.csv", "--input-kind", "snapshots", "--method", "sns"),
], ids=["tw", "estimate", "trace"])
def test_cli_loads_neither_scipy_nor_pool(tmp_path, command):
    data = np.random.default_rng(1).standard_normal((8, 40))
    np.savetxt(tmp_path / "snaps.csv", data, delimiter=",")
    modules = imported("-m", "eigencount", *command, cwd=tmp_path)
    assert "eigencount.cli" in modules
    assert heavy_modules(modules) == []


def test_first_draw_loads_only_the_kernel_and_keeps_its_bits():
    draw = json.loads(fresh_python("-c", DRAW).stdout)
    assert draw == {"before": False, "after": False, "scipy_modules": [],
                    "kernel_loaded": True, "sha256": DRAW_SHA256}


def test_fallback_to_scipy_special_keeps_the_bits():
    draw = json.loads(fresh_python("-c", DRAW, "scipy.special._no_such_module").stdout)
    assert (draw["after"], draw["sha256"]) == (True, DRAW_SHA256)


def test_scipy_special_imports_after_the_kernel_with_the_same_bits():
    assert json.loads(fresh_python("-c", LATE_IMPORT).stdout) == {
        "same_bits": True, "submodule": True}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
def test_fig4_requests_reuse_the_heap():
    # Without the kernel load's 16 MB allocate-and-free, glibc's mmap
    # threshold stays at 128 KB and each request takes over 100 faults.
    faults = float(fresh_python("-c", FIG4_FAULTS, OPENBLAS_NUM_THREADS="1",
                                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1").stdout)
    assert faults < 20


def test_workers_start_after_the_kernel_is_loaded():
    serial, parallel = (json.loads(fresh_python("-c", SWEEP, jobs).stdout)
                        for jobs in ("1", "2"))
    assert (serial["multiprocessing_loaded"], serial["launched"]) == (False, [])
    # The first draw of the parallel sweep comes after the fork, so only a
    # load before the workers start puts the kernel in them.
    assert parallel["launched"] == [True]
    assert parallel["csv"] == serial["csv"]
