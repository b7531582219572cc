"""Fixtures shared by the test modules."""

import pytest

from fluorgen.molgraph import Atom, Bond


@pytest.fixture
def constructed_objects(monkeypatch):
    """The class names of the Atom and Bond objects constructed while the
    test runs, in order; the commands' graph work reads columns and builds
    none."""
    built = []
    for cls in (Atom, Bond):
        def counting(self, *args, _original=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built
