"""Suite-wide fixtures."""

import pytest

from repro import configuration


@pytest.fixture(autouse=True)
def _restore_configuration():
    """Every test leaves the global configuration exactly as it found
    it, environment-seeded values included."""
    with configuration.override(**configuration):
        yield
