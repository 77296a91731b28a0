import sys

import pytest

import momentangle  # noqa: F401  (loads momentangle.homology)


@pytest.fixture
def no_collapse(monkeypatch):
    """Make every collapse of the sphere certificate fail, so that each
    complex's homology condition falls back to homology, as it did before
    the certificate tried collapses."""
    hmod = sys.modules["momentangle.homology"]
    monkeypatch.setattr(hmod, "_collapses_off_a_facet",
                        lambda faces, removed, count, xor: False)
