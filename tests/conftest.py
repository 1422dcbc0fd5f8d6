import numpy as np
import pytest

from qgplab import models
from qgplab.models import RobustModelParams, RotatingSpinParams


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


@pytest.fixture(scope="session")
def fig1_params():
    """Robust-model parameters of the reference figure: strong static field."""
    return RobustModelParams(eta=1.0, eta0=20.0, eta1=1.0, eta2=100.0)


@pytest.fixture(scope="session")
def regime_unfaithful():
    """Slow sweep, small transverse field: gap criterion passes, evolution
    still leaves the orbit (the QGP eats the gap)."""
    return RotatingSpinParams(eta=0.995, xi=0.0999, K=1.0)


@pytest.fixture(scope="session")
def regime_rescued():
    """Fast sweep: gap criterion fails but the QGP-corrected one passes and
    the evolution stays adiabatic."""
    return RotatingSpinParams(eta=1.0, xi=0.05, K=200.0)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def uncoupled_crossings(basis=np.eye(3)):
    """basis diag(tau, -tau + 0.3, 0.5 tau - 0.2) basis^+: three crossings of
    uncoupled levels, at tau = -0.4, 0.15 and 1/3, so eigh reorders its
    columns."""
    slopes = np.array([1.0, -1.0, 0.5])
    offsets = np.array([0.0, 0.3, -0.2])
    lines = lambda taus: taus[:, None] * slopes + offsets  # noqa: E731

    def evaluate_batch(taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        return (basis * lines(taus)[:, None, :]) @ basis.conj().T

    def derivative_batch(taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        hdot = (basis * slopes) @ basis.conj().T
        return np.broadcast_to(hdot, (taus.size, 3, 3)).copy()

    model = models.HamiltonianModel(
        dim=3, evaluate_batch=evaluate_batch, derivative_batch=derivative_batch,
        label="uncoupled crossings",
    )
    return model, lines
