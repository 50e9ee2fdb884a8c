from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def corpus_dir() -> Path:
    return FIXTURES / "example_corpus"


@pytest.fixture
def reference_dir() -> Path:
    return FIXTURES / "reference"


@pytest.fixture
def health_snapshot() -> Path:
    return FIXTURES / "health" / "snapshot.txt"
