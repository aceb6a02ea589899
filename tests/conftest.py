import pytest

from halfheat.experiments import ExperimentConfig, run_oscillation_experiments


@pytest.fixture(scope="session")
def default_oscillation():
    """The default seed-0 oscillation experiment (several seconds), run once
    for both the golden digest test and acceptance criterion 8, which read
    the same config."""
    golden = ExperimentConfig.from_mapping({"seed": 0}, kind="oscillation")
    criterion = ExperimentConfig.from_mapping({"experiment": "oscillation"})
    assert golden == criterion
    return run_oscillation_experiments(golden)
