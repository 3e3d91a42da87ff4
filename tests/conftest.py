# mirrorless first: its import pins BLAS to one thread only if numpy is not
# loaded yet, so the suite runs under the same threading as the CLI
from mirrorless import build_scheme

import numpy as np
import pytest


@pytest.fixture(scope="session")
def scheme8():
    return build_scheme(1, 2)


@pytest.fixture(scope="session")
def scheme12():
    return build_scheme(2, 3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_density_matrix(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)
