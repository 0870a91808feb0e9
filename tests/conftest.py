import numpy as np
import pytest

from spapprox import ExplicitSeqPsi


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def harmonic_psi():
    return ExplicitSeqPsi.harmonic()
