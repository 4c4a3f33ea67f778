import multiprocessing
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from scafd.cli import gen_toy
from scafd.data import load_csv

settings.register_profile(
    "ci",
    max_examples=200,
    deadline=200,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=False,
    print_blob=True,
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def toy_paths(tmp_path_factory):
    """Seed-0 toy dataset shared by the slower integration tests."""
    out = tmp_path_factory.mktemp("toy")
    return gen_toy(out, seed=0)


@pytest.fixture(scope="session")
def toy_train(toy_paths):
    return load_csv(toy_paths[0], samples="rows", header=True)


@pytest.fixture(scope="session")
def toy_test(toy_paths):
    return load_csv(toy_paths[1], samples="rows", header=True)


@pytest.fixture(scope="session")
def toy_sca_model(toy_train):
    """One trained monitor reused wherever only 'a fitted model' matters."""
    from scafd.optimizer import CgConfig
    from scafd.sca import train

    model, trace = train(toy_train, p=2, cfg=CgConfig(seed=7, max_iters=150))
    return model, trace


@pytest.fixture(scope="module")
def ac10_shape_model():
    """An SCA model of the AC10 shape: n=52, p=27 (N=2757), m=500."""
    from scafd.data import Scaler
    from scafd.manifold import random_stiefel
    from scafd.sca import ScaModel

    rng = np.random.default_rng(5)
    n, p, m = 52, 27, 500
    N = 1 + n + n * n
    return ScaModel(
        scaler=Scaler(mean=rng.standard_normal(n), std=rng.uniform(0.5, 2.0, n)),
        w=rng.standard_normal((N, p)),
        w_tilde=random_stiefel(N, p, rng),
        sigma_g_inv=np.eye(p),
        g_mean=rng.standard_normal(p),
        t2_train=rng.chisquare(p, m),
        kde_bandwidth=1.5,
        control_limit=40.0,
    )


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_suite():
    """Fail the run if a bench, or anything else, leaves a worker running."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion after the test run."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for name, status, detail in results:
        terminalreporter.write_line(f"{name}: {status} — {detail}")
