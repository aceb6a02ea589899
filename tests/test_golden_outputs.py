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
        "0a30c63d0df99c0bb3a5409688e776c658096c53601c457728f5e5099aaff40e",
        "0ba410178d4590dad0a9e4dd6f83db9c393093a66ff8942857e06adf7ba706e0",
    ),
    ("identities", 1): (
        "15bbb95dab3b29763135e7cfe3d825dfb30b3fdd08412c10bb69e933ccdafccf",
        "d4b1c5ee5b14750ecdd428fcbcc0e350f26aa1267468881c23fb3afeaf3ee478",
    ),
    ("l2", 0): (
        "8e670795200a093ec30ca7031ee233ff2dfb807dd7fd1d8e5bb709d9a3a1eb4d",
        "c1b9916b94f3851df8b96a988d5e517ea7d24cab7c47b7f40b3ef9a2e5e86f10",
    ),
    ("l2", 1): (
        "1b3f03a520f90d691a03edee313e54336375e3bc8ad2701628c70165cd661f42",
        "ff1bf9e91f74c6ca0c93fb6b9d078cd60a2498275155e3af249f49ec23c780dc",
    ),
    ("lp_sweep", 0): (
        "0135dd689ae50bf29fafb09d6bd18dc470136d4a9cb12276340fdb3e03026538",
        "d27200e793f17ce0319f2978fc2f3f20edafe72a971158efae65afb2a045746c",
    ),
    ("lp_sweep", 1): (
        "5c8051fed8c34774bfe282838ec60d090e6910855d0b6ae28d68dcf132c40474",
        "53afd645f27e585987a8515e2ee9de4f94898004dee0b700ba5b4d637f64f247",
    ),
    ("tail_decay", 0): (
        "b34d81bea36004426a372f8230a228a55c3759278830d0abb1f6276b6ae8a8bf",
        "645c8dc4bacb60c891111ccd180a784cdb60512ab490a18e13d0f7c3d23eb348",
    ),
    ("tail_decay", 1): (
        "b34d81bea36004426a372f8230a228a55c3759278830d0abb1f6276b6ae8a8bf",
        "59334b40101327f704cb1525983e2c4e4426093b45af9ed8ffbe9cf47cf9c5cc",
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
