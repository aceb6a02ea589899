"""Golden outputs: the trials.csv/summary.json bytes of the default-config
experiments, pinned by sha256.

Every refactor must keep these bytes.  The digests were recorded with numpy
2.4.6; another FFT or BLAS build may move the last bits of some floats.  No
output depends on scipy, which the package does not import.  Every full-grid
2-norm is grid._norm, summed by numpy's einsum on one thread, so the bytes do
not depend on the core or OpenBLAS thread count (checked below).  Two BLAS
products remain: coefficients._trig_polynomial (harmonic data and the
``smooth`` coefficient kind) and the Gram-Schmidt products of
solver._arnoldi_step.  Their bits are the same under one and two threads, but a
BLAS build that orders those sums differently can move last bits.  When
a digest changes on purpose, CHANGES.md says why; a digest is never
re-pinned silently.  The oscillation experiment is pinned at seed 0 only: it
is the slowest of them (several seconds), and its run is shared with
acceptance criterion 8 (conftest.default_oscillation).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import halfheat
from halfheat.experiments import EXPERIMENTS, ExperimentConfig, write_outputs

GOLDEN = {
    ("identities", 0): (
        "dc6f8cbab10166ae4e505caf29d29cfeb4e0a5486fa3e52647cb659a42f84488",
        "1a48e6e8d501cbf2b9502ca5a808a816de95150f3bd8b89a1ed8d74922e0bd73",
    ),
    ("identities", 1): (
        "e59e0db25b5589bbdf0539ba0dba6ce6b4494a10715bb2fd53f5b7ee6432dd77",
        "df9ab90b9a6a98ce085c10fdb418b92cc9d5956931d846eab3ed38df8a575e22",
    ),
    ("l2", 0): (
        "7b6aa5081673215ba00eedfb0fbc6f7a4c2f425a036e70b086517db201852dd4",
        "7c39f7428d9fcbb9a6aa80474ed2b8c2c3a4b06a336fb84ee2411e8dd5a1a905",
    ),
    ("l2", 1): (
        "fae9618a9dd3adb0f45e8899932d9d3624dec282c9fd79b03e004635fa302e02",
        "c68d5837120533339b3329abc142b6815a96c97fff8a8ab928c444e84a00062b",
    ),
    ("lp_sweep", 0): (
        "27994ac4aab99968db12053a5446f1131f9d695773146e967463a72f65843f85",
        "d0de67d46fdd88db50544fb92f7d7f6e8df31db29173028695719965a1dea0f4",
    ),
    ("lp_sweep", 1): (
        "d078e64fc09c54dc094a33a1c736565ce5c483d93d6c54256908228f0644c76d",
        "2723a66f39623b3685c021d4adbf56850b451bf215271db8367f5594222962f1",
    ),
    ("tail_decay", 0): (
        "793342009da8de814d993db86ba52e1d76dd5ae912a88308e6457943b242c176",
        "22e5bf5c1c7c533822a273287cb7add2f989456361974cdeb4ac2dfbf77253ce",
    ),
    ("tail_decay", 1): (
        "793342009da8de814d993db86ba52e1d76dd5ae912a88308e6457943b242c176",
        "13fa015fb04e75731889757a08cb32eabe381d1c94573a44701492d5fa9f1c37",
    ),
    ("assumptions", 0): (
        "f4f13801e31e0f99bd0a4117d2eb95a7d565fdd8e7ebdd7bcdf40df325149a4b",
        "554f95db907367d5e3178844af5548e6dfc5e67f3f399ecf81773eab754a9669",
    ),
    ("assumptions", 1): (
        "ca150b4ffbb65900fe38fa7a8cf549f98293370acdb86583e6d7c802c4998456",
        "eed0edd5b4e7662b5b5f3f0a8d4379c2b9a610f086d324260ca74c57f5c22b3f",
    ),
    ("oscillation", 0): (
        "62eaa7be7bbc1741d4ff1ad14a6c1a9ff4d0efd5a394ae7da6c0f3dedd2df9d8",
        "df46708bd8164525b67261c159dd7f1a6c2cfc98a4721a970edf30fb5b70fd08",
    ),
}


@pytest.mark.parametrize("kind, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_default_outputs_are_byte_identical(tmp_path, request, kind, seed):
    if (kind, seed) == ("oscillation", 0):
        result = request.getfixturevalue("default_oscillation")
    else:
        result = EXPERIMENTS[kind](ExperimentConfig.from_mapping({"seed": seed}, kind=kind))
    paths = write_outputs(result, tmp_path)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert digests == GOLDEN[kind, seed]


# the benchmark's lp_sweep_d2 workload config (perfbench/workloads.py,
# LP_SWEEP_D2), copied here so that the benchmark and this pin move apart
# only on purpose
LP_SWEEP_D2 = {
    "grid": {"d": 2, "n_t": 32, "n_x": 32, "l_t": 2.0, "l_x": 2.0},
    "coefficients": {"kinds": ["time_piecewise", "x1_piecewise"], "delta": 0.25, "seed": 0},
    "lambdas": [1.0, 4.0, 16.0, 64.0],
    "p_list": [1.5, 3.0, 4.0],
    "trials": 1,
}


def test_lp_sweep_d2_outputs_are_byte_identical(tmp_path):
    """The d = 2 sweep with delta = 0.25 and p in {1.5, 3, 4} at seed 0: no
    default config runs d = 2, p != 2 or delta < 1, so this pins the x1 and
    (t, xi)-frame solves, their handed-over bundle slots and the p != 2 norms.
    Those norms take the p-th power with np.power, whose last bits depend on
    numpy's SIMD dispatch (AVX-512 or not), as oscillation-0's exp does."""
    config = ExperimentConfig.from_mapping({**LP_SWEEP_D2, "seed": 0}, kind="lp_sweep")
    paths = write_outputs(EXPERIMENTS["lp_sweep"](config), tmp_path)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert digests == (
        "d12fb109d289bcf2f2ff1a5a0a534ed8ac4e9acf0208ebef8bab63bf2bd3fec3",
        "8dd429a4672279b39a43ca521e68e9d69118f86f1d47ad71fa0c2e3594d03e1d",
    )


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Default identities and lp_sweep at seed 0, each run by the CLI in a
    child with one OpenBLAS thread, in a child with two, and in a child with
    two and OpenBLAS's own idle-worker timeout (OPENBLAS_THREAD_TIMEOUT=28,
    which halfheat's import would otherwise lower to 4), write the same
    bytes."""
    src = str(Path(halfheat.__file__).parents[1])
    arms = {
        "1": {"OPENBLAS_NUM_THREADS": "1"},
        "2": {"OPENBLAS_NUM_THREADS": "2"},
        "2_timeout_28": {"OPENBLAS_NUM_THREADS": "2", "OPENBLAS_THREAD_TIMEOUT": "28"},
    }
    outputs = {}
    for arm, blas in arms.items():
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_THREAD_TIMEOUT"}
        env.update(blas, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        written = outputs[arm] = {}
        for command in ("identities", "lp-sweep"):
            out = tmp_path / arm / command
            proc = subprocess.run(
                [sys.executable, "-m", "halfheat", command, "--seed", "0", "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            for name in ("trials.csv", "summary.json"):
                written[command, name] = (out / name).read_bytes()
    assert [arm for arm in arms if outputs[arm] != outputs["1"]] == []
