"""Suite-wide fixtures."""

import pytest

from repro import configuration


@pytest.fixture(autouse=True)
def _restore_configuration():
    """Every test leaves the global configuration exactly as it found
    it, environment-seeded values included."""
    with configuration.override(**configuration):
        yield


@pytest.fixture
def step_calls(monkeypatch):
    """Count calls of the compiled step per rank thread: every object
    loaded from now on has its ``step`` wrapped, and ``step_calls()``,
    called on a rank's thread, returns how often that thread called
    one."""
    import threading

    from repro.codegen import jit
    local = threading.local()
    load = jit.load_steps

    def counting_load(so_path):
        lib, funcs = load(so_path)
        step = funcs['step']

        def counted(*args):
            local.calls = getattr(local, 'calls', 0) + 1
            return step(*args)
        return lib, dict(funcs, step=counted)

    monkeypatch.setattr(jit, 'load_steps', counting_load)
    return lambda: getattr(local, 'calls', 0)
