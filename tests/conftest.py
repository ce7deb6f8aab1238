"""Shared fixtures: the default wavelet build and the deep cutoff build are
expensive, so they are session-scoped and reused across test modules."""

import pytest

from lambertwave import GridSpec, build_mollifier, build_wavelet
from lambertwave.cli import _log_grid
from lambertwave.verify import FIT_X


@pytest.fixture(scope="session")
def wavelet():
    """Default pipeline wavelet: sigma=2, a=pi/6, closed-form ramps of
    half-width a/4 (the cone cascade's first factor), full 2^22-sample
    synthesis."""
    return build_wavelet()


@pytest.fixture(scope="session")
def deep_moll():
    """The cone cascade at sigma = 2 on the cutoff stage's grid (2^17
    cells), from its transform: an exact sinc^2 factor for every scale of
    a cell or more, the narrower ones folded."""
    return build_mollifier(2.0, GridSpec.symmetric(1.5, 17))


@pytest.fixture(scope="session")
def fit_grid():
    """The decay-fit stage's own points, ``verify.FIT_X``."""
    return _log_grid(*FIT_X)


@pytest.fixture(scope="session")
def lattice_cache(wavelet):
    """Derivative-order -> synthesized lattice, shared by decay and moment
    audits: order 0 is the certified synthesis, and orders 1..8 the
    lattices the program ships, each order synthesized alone by
    ``WaveletBuild.lattices``."""
    orders = range(1, 9)
    return {0: wavelet.synthesis.grid,
            **dict(zip(orders, wavelet.lattices(orders, lambda q, grid: grid)))}
