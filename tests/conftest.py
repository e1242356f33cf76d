import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# one policy for every property test: no deadline, and the same examples on
# every run (no randomness, no example database); tests set only max_examples
settings.register_profile("gaborop", deadline=None, derandomize=True, database=None)
settings.load_profile("gaborop")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def rng_session():
    return np.random.default_rng(99)
