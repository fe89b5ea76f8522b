"""Shared fixtures for the test suite.

Also puts this directory on ``sys.path`` so the test-only oracles in
``tests/reference/`` import as ``reference``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mobility.markov import MarkovChain
from repro.mobility.models import paper_synthetic_models

_TESTS_DIR = str(Path(__file__).resolve().parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def two_state_chain() -> MarkovChain:
    """A tiny two-state chain with an easy closed-form stationary vector."""
    return MarkovChain(np.array([[0.9, 0.1], [0.3, 0.7]]))


@pytest.fixture
def skewed_chain() -> MarkovChain:
    """A five-state chain strongly attracted to cell 0 (predictable user)."""
    matrix = np.full((5, 5), 0.05)
    matrix[:, 0] = 0.8
    matrix /= matrix.sum(axis=1, keepdims=True)
    return MarkovChain(matrix)


@pytest.fixture
def random_chain() -> MarkovChain:
    """A ten-state chain with random transitions (high-entropy user)."""
    generator = np.random.default_rng(7)
    matrix = generator.uniform(0.1, 1.0, size=(10, 10))
    matrix /= matrix.sum(axis=1, keepdims=True)
    return MarkovChain(matrix)


@pytest.fixture(scope="session")
def synthetic_models() -> dict[str, MarkovChain]:
    """The paper's four synthetic mobility models (L = 10)."""
    return paper_synthetic_models(10, seed=2017)
