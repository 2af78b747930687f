import threading

import pytest

import sitctl as s


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread alive that it started, such as a sweep worker that outlived its sweep."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert left == [], f"threads still running after the test: {left}"


@pytest.fixture
def counting_compiler(monkeypatch, tmp_path):
    """The C compiler behind a wrapper that logs one line per run, with no native build made yet: the log's path.

    Skips the test where no C compiler is found.
    """
    from sitctl import native

    if native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    log, counting = tmp_path / "runs", tmp_path / "cc"
    counting.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec "{native.compiler()}" "$@"\n')
    counting.chmod(0o755)
    monkeypatch.setattr(native, "compiler", lambda: str(counting))
    monkeypatch.setattr(native, "_BUILT", {})
    return log


@pytest.fixture(scope="session")
def params():
    return s.NOMINAL_PARAMS


@pytest.fixture(scope="session")
def eq(params):
    return s.persistence_equilibrium(params)


@pytest.fixture(scope="session")
def cfg(params):
    """Ceiling-primary gains: F_hat = 27/20 F_bar, eta = delta_s - 0.02, rho = 0.5."""
    return s.nominal_controller(params)


@pytest.fixture(scope="session")
def cfg_strong(params):
    """Aggressive gains: contraction offset 0.01, ceiling solved from it."""
    return s.strong_controller(params)


# Long closed-loop runs are shared across test modules; they are pure
# functions of their specs, so session scope is safe.

@pytest.fixture(scope="session")
def nominal_plus_run(params, cfg, eq):
    law = s.ControlLaw("plus", cfg, params)
    spec = s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=2000.0, dt=0.01, record_every=100)
    return s.integrate(spec)


@pytest.fixture(scope="session")
def global_high_run(params, cfg, eq):
    law = s.ControlLaw("global", cfg, params)
    spec = s.SimSpec(model="reduced", law=law, initial=(3.0 * eq.F_bar, 0.0), t_end=2000.0, dt=0.01, record_every=100)
    return s.integrate(spec)


@pytest.fixture(scope="session")
def full_strong_run(params, cfg_strong, eq):
    law = s.ControlLaw("global", cfg_strong, params)
    spec = s.SimSpec(
        model="full", law=law, initial=(eq.E_bar, eq.M_bar, eq.F_bar, 0.0),
        t_end=2000.0, dt=0.01, record_every=100,
    )
    return s.integrate(spec)


@pytest.fixture(scope="session")
def reduced_strong_run(params, cfg_strong, eq):
    law = s.ControlLaw("global", cfg_strong, params)
    spec = s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=2000.0, dt=0.01, record_every=100)
    return s.integrate(spec)


@pytest.fixture(scope="session")
def open_loop_run(params, cfg, eq):
    law = s.ControlLaw("none", cfg, params)
    spec = s.SimSpec(model="reduced", law=law, initial=(0.9 * eq.F_bar, 0.0), t_end=2000.0, dt=0.01, record_every=100)
    return s.integrate(spec)
