import sys

import pytest

import momentangle  # noqa: F401  (loads momentangle.homology)


@pytest.fixture
def no_shelling(monkeypatch):
    """Make the greedy shelling of the sphere certificate's root fail, so
    that every complex's homology condition is settled by its collapse,
    or by homology when the collapse gets stuck."""
    hmod = sys.modules["momentangle.homology"]
    monkeypatch.setattr(hmod, "_shelling_order", lambda masks: None)


@pytest.fixture
def no_collapse(monkeypatch, no_shelling):
    """Make the root's shelling and every collapse of the sphere
    certificate fail, so that each complex's homology condition falls back
    to homology, as it did before the certificate tried shellings and
    collapses."""
    hmod = sys.modules["momentangle.homology"]
    monkeypatch.setattr(hmod, "_collapses_off_a_facet",
                        lambda faces, removed, count, xor: False)
