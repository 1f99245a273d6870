import hypothesis
import numpy as np
import pytest

from pdecontrol import rom

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_interval():
    return (np.array([0.0]), np.array([1.0]))


def fourier_sine_arch(n_modes: int) -> rom.RomArch:
    """Orthonormal sine basis sqrt(2) sin(k pi x), k = 1..n_modes, on (0,1)."""
    return rom.RomArch(kind=rom.LINEAR_BASIS, input_dim=1, n_modes=n_modes)
