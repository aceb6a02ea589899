"""Golden outputs: the trials.csv/summary.json bytes of the default-config
experiments, pinned by sha256.

Every refactor must keep these bytes.  The digests were recorded with numpy
2.4.6 and scipy 1.17.1; another FFT or BLAS build may move the last bits of
some floats.  When a digest changes on purpose, CHANGES.md says why; a digest
is never re-pinned silently.  The oscillation experiment is pinned at seed 0
only: it is the slowest of them (several seconds).
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
        "5914adcda40ea400d32a0741f18ed9645c2744cee85cd6c607a71a8401e3f88e",
        "4f7ba22a8d134fdbbed0123f999a16f420f698ede4289ec1dc7dc9b216325b1f",
    ),
    ("lp_sweep", 1): (
        "0a40ba30ee233cf8e1857b075e931afca99f10b1f55fe993ffa2e3b42c9671de",
        "a8f8daae4c1d1d84e4cf3333da7c1c6cca432bb981e7548772430a73b1f1c6f0",
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
        "e22443f2ac213a907f41f6a5dc727f3a3335f5056699e2d00dc1e21898416e14",
        "85f38fce4f4f89eb3826e8ab5df79971d0f9fff8eeeac1fc022e521de02c7f82",
    ),
    ("assumptions", 1): (
        "0e8f38e1b6d3fb3cbbc3b9b4bb32322affa1ccb59c3a1dd588a9923f77b3cb0b",
        "29dba93ef0b34ea67a09bd26beec665cdd73b8964bd286c0170dbdfee3dc5e49",
    ),
    ("oscillation", 0): (
        "bf0a06641042f023f76590919c2d4b073d7a045c63599e827b2806ebb2fe2ff1",
        "beb6859e6bc2c3807da11061d13e8121a1d1be8c732296300f4fe17331c33e51",
    ),
}


@pytest.mark.parametrize("kind, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_default_outputs_are_byte_identical(tmp_path, kind, seed):
    config = ExperimentConfig.from_mapping({"seed": seed}, kind=kind)
    paths = write_outputs(EXPERIMENTS[kind](config), tmp_path)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert digests == GOLDEN[kind, seed]
