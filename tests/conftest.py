import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "demos" / "scenarios"


@pytest.fixture
def scenario_dir():
    return SCENARIO_DIR


class _NotKept(Exception):
    pass


def _not_kept():
    raise _NotKept


@pytest.fixture
def is_kept():
    """``is_kept(mesh, key)``: whether the mesh keeps a value under `key`,
    asked through `Mesh.cached` with a build that raises, which keeps
    nothing."""
    def ask(mesh, key):
        try:
            mesh.cached(key, _not_kept)
        except _NotKept:
            return False
        return True
    return ask
