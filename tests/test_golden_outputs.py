"""Golden outputs: the trials.csv/summary.json bytes of the default-config
experiments, pinned by sha256.

Every refactor must keep these bytes.  The digests were recorded with numpy
2.4.6; another FFT or BLAS build may move the last bits of some floats.  No
output depends on scipy, which the package does not import.  Harmonic data and the ``smooth`` coefficient kind
now go through one BLAS product (coefficients._trig_polynomial), so a BLAS
build that orders that sum differently can move their last bits too.  When
a digest changes on purpose, CHANGES.md says why; a digest is never
re-pinned silently.  The oscillation experiment is pinned at seed 0 only: it
is the slowest of them (several seconds), and its run is shared with
acceptance criterion 8 (conftest.default_oscillation).
"""

import hashlib

import pytest

from halfheat.experiments import EXPERIMENTS, ExperimentConfig, write_outputs

GOLDEN = {
    ("identities", 0): (
        "39d14da86a32275eabdc04cc7494656bbea3de155eb1b606fafb91869589d434",
        "fa3812beb6fe6a644d3c49049bf5a4e83919786888cd054b161d999be567cd96",
    ),
    ("identities", 1): (
        "433dd1813db8e27f7a834c76324686cc740acbb5716264d29b9d1a58f4160b77",
        "273b9f4f797a325f26c0e32ff145ad5642627e4223a8576162c80c2ab327171f",
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
        "aeffc3c236b3b5dce40668af5e27bcc1e983fcf5b0c7da35b7652386fa6ef735",
        "d0de67d46fdd88db50544fb92f7d7f6e8df31db29173028695719965a1dea0f4",
    ),
    ("lp_sweep", 1): (
        "d938287cc6506968ff874385122d8ba36525650504b18e029c87c37c7a4817bc",
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
