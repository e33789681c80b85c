"""The L-BFGS-B driver of ``model.empirical_minimizer`` against the public
``scipy.optimize.minimize``, on the compiled ``setulb`` and on every way the
loader falls back to the public call."""

import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.optimize
from scipy.optimize import minimize

from stabilab import model, solvers
from stabilab.model import LossModel, grad_batch, make_synthetic_dataset

LBFGSB_FILE = next((Path(scipy.__file__).parent / "optimize" / f"_lbfgsb{s}"
                    for s in solvers.EXTENSION_SUFFIXES
                    if (Path(scipy.__file__).parent / "optimize"
                        / f"_lbfgsb{s}").is_file()), None)
COMPILED = LBFGSB_FILE is not None and (
    scipy.optimize._lbfgsb.setulb.__doc__ or "").startswith(model._SETULB)
needs_setulb = pytest.mark.skipif(
    not COMPILED, reason="this scipy has no compiled setulb of this signature")

SINE = LossModel("RegularizedSine", m0=0.5, s=1.0)
POWER = LossModel("ScalarPower", p=1.5, mu=1.0)
# the older Fortran setulb (scipy before 1.15) has another argument list
FORTRAN_SETULB = ("setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,iprint,"
                  "csave,lsave,isave,dsave,maxls,[n])")


def public_minimizer(loss, ds):
    """The former path: ``minimize(..., "L-BFGS-B", tol=1e-14).x``."""
    A, Y = ds.features, ds.labels

    def objective(theta):
        if loss.family == "RegularizedSine":
            return 0.5 * loss.m0 * theta @ theta + \
                loss.s * np.mean(np.sin(A @ theta - Y))
        return np.mean(loss.mu / loss.p * np.abs(theta[0] - Y) ** loss.p)

    return minimize(objective, np.zeros(ds.dim_d),
                    jac=lambda t: grad_batch(loss, t, A, Y),
                    method="L-BFGS-B", tol=1e-14).x


def grid_cases():
    for n in (8, 13, 32, 50):
        for radius in (0.1, 1.0, 3.0):
            for generator in ("gaussian_clipped", "sphere_uniform"):
                yield POWER, n, 1, radius, generator
                for d in (1, 2, 5, 16):
                    yield SINE, n, d, radius, generator


def dataset(n, d, radius, generator):
    return make_synthetic_dataset({"n": n, "d": d, "generator": generator,
                                   "radius_D": radius}, n + d)


@pytest.fixture
def unloaded(monkeypatch):
    """No setulb cached and no _lbfgsb module imported, as in a fresh
    process (restored afterwards)."""
    monkeypatch.setattr(model, "_setulb", None)
    monkeypatch.delitem(sys.modules, model._LBFGSB, raising=False)
    return monkeypatch


class FailingLoader:
    def __init__(self, name, path):
        raise ImportError(f"cannot load {path}")


def foreign_module(unloaded):
    """A loaded _lbfgsb whose setulb has the Fortran signature."""
    def setulb(*args):
        raise AssertionError("a foreign setulb was called")

    setulb.__doc__ = FORTRAN_SETULB
    module = types.ModuleType(model._LBFGSB)
    module.setulb = setulb
    unloaded.setitem(sys.modules, model._LBFGSB, module)


FALLBACKS = {
    "missing": lambda m: m.setattr(solvers, "EXTENSION_SUFFIXES",
                                   [".missing"]),
    "raises": lambda m: m.setattr(solvers, "ExtensionFileLoader",
                                  FailingLoader),
    "foreign": foreign_module,
}


@needs_setulb
class TestCompiledSetulb:
    @pytest.mark.parametrize("loss, n, d, radius, generator",
                             list(grid_cases()))
    def test_equals_public_minimize(self, unloaded, loss, n, d, radius,
                                    generator):
        ds = dataset(n, d, radius, generator)
        theta = model.empirical_minimizer(loss, ds)
        assert model._setulb == (scipy.optimize._lbfgsb.setulb, True)
        assert np.array_equal(theta, public_minimizer(loss, ds))

    def test_direct_load_reads_the_extension_file(self, unloaded):
        loads = []

        class RecordingLoader(solvers.ExtensionFileLoader):
            def __init__(self, name, path):
                loads.append((name, path))
                super().__init__(name, path)

        unloaded.setattr(solvers, "ExtensionFileLoader", RecordingLoader)
        model.empirical_minimizer(SINE, dataset(8, 2, 1.0, "sphere_uniform"))
        assert loads == [(model._LBFGSB, str(LBFGSB_FILE))]
        assert model._LBFGSB not in sys.modules
        assert model._setulb == (scipy.optimize._lbfgsb.setulb, True)

    def test_signature_accepted_is_the_installed_one(self):
        doc = scipy.optimize._lbfgsb.setulb.__doc__
        assert doc.partition("\n")[0] == model._SETULB

    def test_stops_at_the_evaluation_cap(self, unloaded):
        # an unbounded linear objective runs until scipy's cap: the first
        # new iteration after 15000 evaluations; both paths stop alike
        calls = []

        def fun(x):
            calls.append(x)
            return -np.sum(x)

        def jac(x):
            return -np.ones_like(x)

        x0 = np.linspace(0.1, 1.0, 3)
        ours, direct = model._lbfgsb(fun, jac, x0), calls[:]
        calls.clear()
        public = minimize(fun, x0, jac=jac, method="L-BFGS-B", tol=1e-14)
        assert public.message.startswith("STOP: TOTAL NO. OF F,G")
        assert np.array_equal(ours, public.x)
        assert len(direct) == public.nfev > 15000
        assert np.array_equal(direct, calls)


@pytest.mark.parametrize("failure", sorted(FALLBACKS))
@pytest.mark.parametrize("loss, n, d",
                         [(SINE, 8, 1), (SINE, 32, 16), (POWER, 13, 1)])
def test_fallback_runs_public_minimize(unloaded, failure, loss, n, d):
    FALLBACKS[failure](unloaded)
    ds = dataset(n, d, 1.0, "gaussian_clipped")
    theta = model.empirical_minimizer(loss, ds)
    assert model._setulb == (scipy.optimize.minimize, False)
    assert np.array_equal(theta, public_minimizer(loss, ds))


def test_loader_rejects_what_accept_rejects(unloaded):
    foreign_module(unloaded)
    assert solvers.load_optimize(model._LBFGSB, "setulb", "minimize") == (
        sys.modules[model._LBFGSB].setulb, True)
    assert solvers.load_optimize(
        model._LBFGSB, "setulb", "minimize",
        lambda f: f.__doc__ == model._SETULB) == (scipy.optimize.minimize,
                                                 False)
