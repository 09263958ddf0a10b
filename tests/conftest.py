"""Shared paths and loaders for the test suite."""

from pathlib import Path

import pytest
from hypothesis import settings

from eulermagic.matrices import Matrix, parse_matrix_text

# property tests run exact arithmetic whose cost varies a lot between
# examples, so no per-example deadline; each test sets its own max_examples
settings.register_profile("eulermagic", deadline=None)
settings.load_profile("eulermagic")

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def load_fixture(name: str) -> Matrix:
    return parse_matrix_text((FIXTURES / name).read_text(encoding="utf-8"))


@pytest.fixture
def euler4() -> Matrix:
    return load_fixture("euler4.txt")


@pytest.fixture
def family8() -> Matrix:
    return load_fixture("family8.txt")
