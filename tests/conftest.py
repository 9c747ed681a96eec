import json
from math import gcd

import numpy as np
import pytest
from hypothesis import strategies as st

from fractalspec import FractalMeasure, cantor_four, make_system


@pytest.fixture(scope="session")
def cantor4():
    return cantor_four()


@pytest.fixture(scope="session")
def cantor4_measure(cantor4):
    return FractalMeasure(cantor4)


@pytest.fixture(scope="session")
def odd3():
    # odd scale: passes the unitarity check, fails integrality
    return make_system(3.0, [0.0, 0.5], [0.0, 1.0])


@pytest.fixture(scope="session")
def odd3_measure(odd3):
    return FractalMeasure(odd3)


@pytest.fixture(scope="session")
def even2():
    # |R| = 2: valid system, outside the dichotomy's even clause
    return make_system(2.0, [0.0, 0.5], [0.0, 1.0])


@pytest.fixture(scope="session")
def quad2d():
    # two-dimensional four-digit system; certified only after rescaling
    return make_system(
        [[4.0, 0.0], [0.0, 4.0]],
        [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    )


@pytest.fixture
def write_system(tmp_path):
    def _write(doc, name="system.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


@pytest.fixture
def cantor4_file(write_system):
    return write_system({"d": 1, "R": [[4]], "B": ["0", "1/2"], "L": [0, 1]})


def grid1d(a, b, step):
    return np.arange(a, b + step / 2, step).reshape(-1, 1)


def hadamard_triple(n, k, lift):
    """1-D Hadamard triple R = N k, B = {0..N-1}/N, L = {0..N-1} + N lift, 0 in L."""
    L = np.arange(n) + n * np.concatenate([[0], lift[: n - 1]])
    return make_system(float(n * k), np.arange(n) / n, L)


# (N, k, lift) for hadamard_triple: N <= 4 digits, R = N k with k in {2, 3},
# and each nonzero frequency lifted by 0 or N
triple_params = st.tuples(
    st.integers(2, 4),
    st.integers(2, 3),
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
)


def multiplier_triple(n, k, p):
    """1-D Hadamard triple R = N k, B = {0..N-1}/N, L = p {0..N-1} with
    gcd(p, N) = 1: its digit matrix (e(p i j / N)) is the Fourier matrix
    with permuted columns."""
    return make_system(float(n * k), np.arange(n) / n, p * np.arange(n))


# (N, k, p) for multiplier_triple: N <= 4 digits, R = N k with k in {2, 3}
# and a multiplier 1 <= p <= 7 prime to N
multiplier_params = st.tuples(st.integers(2, 4), st.integers(2, 3), st.integers(1, 7)).filter(
    lambda params: gcd(params[0], params[2]) == 1
)

# systems of both generated families
generated_triples = st.one_of(
    triple_params.map(lambda params: hadamard_triple(*params)),
    multiplier_params.map(lambda params: multiplier_triple(*params)),
)
