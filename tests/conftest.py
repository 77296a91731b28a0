import sys

import pytest

import momentangle  # noqa: F401  (loads momentangle.homology)


@pytest.fixture
def no_shelling(monkeypatch):
    """Make every greedy shelling of the sphere certificate fail, so that
    each complex's homology condition is settled by homology."""
    hmod = sys.modules["momentangle.homology"]
    monkeypatch.setattr(hmod, "_shelling_order", lambda masks: None)


@pytest.fixture
def root_not_shelling(monkeypatch):
    """Make only the shelling of the sphere certificate's root fail, so
    that the root takes homology and each complex below it tries its own
    shelling unless one above it has shelled.  The root is the one
    complex that the certificate checks with no vertex removed.  Returns
    the list of the masks that _shelling_order was called with."""
    hmod = sys.modules["momentangle.homology"]
    real = hmod._shelling_order
    calls = []

    def shelling(masks):
        calls.append(masks)
        if sys._getframe(1).f_locals["removed"] == 0:
            return None
        return real(masks)

    monkeypatch.setattr(hmod, "_shelling_order", shelling)
    return calls
