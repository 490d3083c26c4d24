import numpy as np
import pytest

from cornergeo.family import preset_structure
from cornergeo.fields import ChartDomain

PRESET_NAMES = ("A", "B", "C", "D")


@pytest.fixture(scope="session")
def structures():
    """The four bundled chart presets, built once."""
    return {name: preset_structure(name) for name in PRESET_NAMES}


@pytest.fixture(scope="session")
def corner_fields(structures):
    """Each preset's frame fields: its one ``corner`` context (memoized per sample)."""
    return {name: s.corner for name, s in structures.items()}


@pytest.fixture(scope="session")
def points():
    """A fixed batch of 20 interior sample points."""
    return ChartDomain().sample(20, 2025)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
