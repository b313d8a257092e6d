"""Fixtures shared by the test modules."""

import weakref

import pytest

from fpmflow.diagnostics import EnergyResidualKernel
from fpmflow.model import SpectralOperator


def _track(monkeypatch, cls) -> list:
    """Weak references to every instance of cls built from now on."""
    made = []
    init = cls.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(cls, "__init__", tracking_init)
    return made


@pytest.fixture
def built_operators(monkeypatch):
    """Weak references to every SpectralOperator built during the test."""
    return _track(monkeypatch, SpectralOperator)


@pytest.fixture
def built_residual_kernels(monkeypatch):
    """Weak references to every EnergyResidualKernel built during the test."""
    return _track(monkeypatch, EnergyResidualKernel)
