"""Golden outputs: the trials.csv/summary.json bytes of the default-config
experiments, pinned by sha256.

Every refactor must keep these bytes.  The digests were recorded with numpy
2.4.6 and scipy 1.17.1; another FFT or BLAS build may move the last bits of
some floats.  When a digest changes on purpose, CHANGES.md says why; a digest
is never re-pinned silently.  The oscillation experiment (about 30 s) is not
run here: its digests (seed 0) are listed in CHANGES.md for a manual check.
"""

import hashlib

import pytest

from halfheat.experiments import EXPERIMENTS, ExperimentConfig, write_outputs

GOLDEN = {
    ("identities", 0): (
        "91c670ca282e0516b5f424f75edf1b0b567ed4ec5a013fa4c1dfcfb9abb4841a",
        "27e8efb43b22cb108a0d33d432febc950d3ab3b7bc10e30a6200c8592b959891",
    ),
    ("identities", 1): (
        "6b5c84a940a4d02fd6450d8e43761f9277c7f7fd0e1b2246369a98aa12587d70",
        "35383a2fb7faab45ca231101dec3c5e7aaf96598d2770d98ad394366469aacf0",
    ),
    ("l2", 0): (
        "517d2662169ad3a257e02b4f07d2a8632fb52fb8c290952e0d0543db7a2384e6",
        "078f75a0efe3444c3e943479808e982cffdb8b834bde947f4a3f59cb3bd93217",
    ),
    ("l2", 1): (
        "b6ce37597c5fe9f3f8a2686fec76e4de6133685bd3acbc2efd8bff7a3410e952",
        "4ffc758ac92122950503e31c18600f47c954158bb5f6fec25a82a0b5969881a6",
    ),
    ("lp_sweep", 0): (
        "e38945ec856254284830c3594ac845fc92b587cff051542625737ba2fd49c1d6",
        "498edd32df7b193cf5ec4ed66d8ec07881e065bd17f867d9769cf03e335a1d5e",
    ),
    ("lp_sweep", 1): (
        "4f82a0c2509fc3f9b06580862ac60c5f741dd411bab6dab8f4f865058fff239e",
        "e7e8dc7ec1517533335b56bd0fb9b8cda1d5e13a1ba25fed34ffd259f7440e51",
    ),
    ("tail_decay", 0): (
        "793342009da8de814d993db86ba52e1d76dd5ae912a88308e6457943b242c176",
        "e598aa32b73de4f020e415d6ac249ce6d9acadf7b9d1a35589079549c70d44e9",
    ),
    ("tail_decay", 1): (
        "793342009da8de814d993db86ba52e1d76dd5ae912a88308e6457943b242c176",
        "6f938655731285e32a0c06f8d80bb07506003011b01c69d7ccfd8ab44e8b39e5",
    ),
    ("assumptions", 0): (
        "e22443f2ac213a907f41f6a5dc727f3a3335f5056699e2d00dc1e21898416e14",
        "4613eafbedd7ee93cfa264c91687f044a0836b9071932c74667f89700121018d",
    ),
    ("assumptions", 1): (
        "0e8f38e1b6d3fb3cbbc3b9b4bb32322affa1ccb59c3a1dd588a9923f77b3cb0b",
        "88d633095711375baabd3bd099300769d362d4ccbb26c4fcbb4332f97de60a31",
    ),
}


@pytest.mark.parametrize("kind, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_default_outputs_are_byte_identical(tmp_path, kind, seed):
    config = ExperimentConfig.from_mapping({"seed": seed}, kind=kind)
    paths = write_outputs(EXPERIMENTS[kind](config), tmp_path)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert digests == GOLDEN[kind, seed]
