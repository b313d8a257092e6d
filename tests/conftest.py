"""Fixtures shared by the test modules."""

import weakref

import pytest

from fpmflow.model import SpectralOperator


@pytest.fixture
def built_operators(monkeypatch):
    """Weak references to every SpectralOperator built during the test."""
    made = []
    init = SpectralOperator.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(SpectralOperator, "__init__", tracking_init)
    return made
