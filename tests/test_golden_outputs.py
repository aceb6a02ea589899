"""Golden outputs: the trials.csv/summary.json bytes of the default-config
experiments, pinned by sha256.

Every refactor must keep these bytes.  The digests were recorded with numpy
2.4.6; another FFT or BLAS build may move the last bits of some floats.  No
output depends on scipy: the solver's LinearOperator.matvec only calls the
solver's own closures.  When a digest changes on purpose, CHANGES.md says
why; a digest is never re-pinned silently.  The oscillation experiment is
pinned at seed 0 only: it is the slowest of them (several seconds), and its
run is shared with acceptance criterion 8 (conftest.default_oscillation).
"""

import hashlib

import pytest

from halfheat.experiments import EXPERIMENTS, ExperimentConfig, write_outputs

GOLDEN = {
    ("identities", 0): (
        "91c670ca282e0516b5f424f75edf1b0b567ed4ec5a013fa4c1dfcfb9abb4841a",
        "fa3812beb6fe6a644d3c49049bf5a4e83919786888cd054b161d999be567cd96",
    ),
    ("identities", 1): (
        "6b5c84a940a4d02fd6450d8e43761f9277c7f7fd0e1b2246369a98aa12587d70",
        "a7ffdd446f6908d0ddedb96d6927bd1307107384fe567825d2c08d828fb80147",
    ),
    ("l2", 0): (
        "517d2662169ad3a257e02b4f07d2a8632fb52fb8c290952e0d0543db7a2384e6",
        "7c39f7428d9fcbb9a6aa80474ed2b8c2c3a4b06a336fb84ee2411e8dd5a1a905",
    ),
    ("l2", 1): (
        "b6ce37597c5fe9f3f8a2686fec76e4de6133685bd3acbc2efd8bff7a3410e952",
        "c68d5837120533339b3329abc142b6815a96c97fff8a8ab928c444e84a00062b",
    ),
    ("lp_sweep", 0): (
        "479032ab9bf25b199158fb6db56ff6800f171a1830e477e5d4b841da05933d34",
        "8fea50cf33146bbe08c7aa2860c948155417041dce5fa1646af85436fe2fedff",
    ),
    ("lp_sweep", 1): (
        "99b41d277a8be18328b55db983118540d15e3c96ae47516c08cc4d0bfc8964e4",
        "0021bbef14ba765dc017892eaf7bea8938a2e413b740e953e48059aa4ae25cf6",
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
        "0318dd20f59eb3209520a996a5e02e6cceccb0ba8c6027cb6e2722127c298f16",
        "a3a136df95813b008b10f907f2dd1a9f52bf28e63242a92f2d68198f195f6531",
    ),
    ("oscillation", 0): (
        "62eaa7be7bbc1741d4ff1ad14a6c1a9ff4d0efd5a394ae7da6c0f3dedd2df9d8",
        "55f604ca83abb7b3493ca2438ecfcf4e707398a1c1d864388d7542994871fe0c",
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
