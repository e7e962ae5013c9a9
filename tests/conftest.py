from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    assert FIXTURES.is_dir(), "run PYTHONPATH=src python tests/fixture_builders.py fixtures first"
    return FIXTURES


@pytest.fixture(scope="session")
def genus2_complex():
    from tautclass.complexes import surface_complex

    return surface_complex(2)


def rep_path(name: str) -> str:
    return str(FIXTURES / name)
