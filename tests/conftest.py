import numpy as np
import pytest

from spapprox import ExplicitSeqPsi
from spapprox.psi import _store


@pytest.fixture(autouse=True)
def cold_psi_store():
    """Each test starts with an empty shared psi store, as a CLI call does."""
    _store.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def harmonic_psi():
    return ExplicitSeqPsi.harmonic()
