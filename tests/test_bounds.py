import math

import numpy as np
import pytest

from stabilab import model
from stabilab.bounds import (REGIMES, InadmissibleError, _perturbation_bound,
                             bound_nonconvex_noisy, bound_nonconvex_plain,
                             bound_quadratic, bound_strongly_convex,
                             bound_subconvex, dissipative_radius, eta_bar,
                             eta_hat_gaussian_log, k0_constant,
                             rho_quadratic)
from stabilab.model import AssumptionConstants
from stabilab.verify import finite_or_null

# frozen regression constants, computed once by independent closed-form
# evaluation and pinned
NOISY_BOUND_FROZEN = 588.2222933495858
LOG_ETA_HAT_FROZEN = -2746.1971327097285
BRANCH2_LOG_FROZEN = -1373.0985663548643
C2_FROZEN = 0.5810193359837562
C3_FROZEN = 43.05369116794921


def unit_dataset(n=10):
    return model.make_synthetic_dataset(
        {"n": n, "d": 1, "generator": "unit_fixed"}, 0)


def const(**kw):
    base = dict(K1=1.0, K2=1.0, mu=0.0, m=0.0, K=0.0, p=2.0, D=1.0, E=0.0)
    base.update(kw)
    return AssumptionConstants(**base)


class TestRhoQuadratic:
    def test_unit_data_exact(self):
        ds = unit_dataset(10)
        for b in (1, 2, 3):
            assert rho_quadratic(ds, 0.1, b)["rho"] == pytest.approx(0.9)

    def test_eta_zero_gives_one(self):
        assert rho_quadratic(unit_dataset(4), 0.0, 1)["rho"] == 1.0

    def test_flat_direction_gives_one(self):
        feats = np.tile([1.0, 0.0], (4, 1))
        ds = model.Dataset(feats, np.ones(4), math.sqrt(2.0),
                           {"generator": "unit_fixed"})
        assert rho_quadratic(ds, 0.1, 1)["rho"] == pytest.approx(1.0)

    def test_cap_enforced(self):
        ds = model.make_synthetic_dataset(
            {"n": 60, "d": 1, "generator": "unit_fixed"}, 0)
        with pytest.raises(ValueError):
            rho_quadratic(ds, 0.1, 30, mode="exact")

    def test_monte_carlo_agrees(self):
        ds = model.make_synthetic_dataset(
            {"n": 12, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 3)
        exact = rho_quadratic(ds, 0.1, 2)["rho"]
        mc = rho_quadratic(ds, 0.1, 2, mode="monte_carlo", n_mc=4000, seed=1)
        assert mc["rho"] == pytest.approx(exact, abs=5 * mc["stderr"] + 1e-6)

    def test_expected_q_norm_unit(self):
        ds = unit_dataset(10)
        res = rho_quadratic(ds, 0.1, 1, pair=model.NeighborPair(ds, ds, 0))
        assert res["Eq1_norm"] == pytest.approx(1.0)


class TestBoundQuadratic:
    ARGS = dict(rho=0.9, rho_hat=0.9, Eq1_norm=1.0, D=math.sqrt(2.0),
                eta=0.1, b=1, n=10, theta0_norm=0.0)

    def test_worked_value_k_inf(self):
        sb = bound_quadratic(k=math.inf, **self.ARGS)
        assert sb.value == pytest.approx(0.8, rel=1e-12)

    def test_worked_value_k_one(self):
        sb = bound_quadratic(k=1, **self.ARGS)
        assert sb.value == pytest.approx(0.08, rel=1e-12)

    def test_k_zero(self):
        assert bound_quadratic(k=0, **self.ARGS).value == 0.0

    def test_rho_one_rejected(self):
        with pytest.raises(InadmissibleError):
            bound_quadratic(1.0, 0.9, 1.0, 1.0, 0.1, 1, 10, 0.0, 10)
        with pytest.raises(InadmissibleError):
            bound_quadratic(0.9, 1.0, 1.0, 1.0, 0.1, 1, 10, 0.0, 10)


class TestPerturbationBound:
    def test_worked_value(self):
        # rate 0.5, gamma 0.1, drift (0.9, 0.2): (1 - 0.5^3)/0.5 * 0.1 * 2
        sb = _perturbation_bound("P", 3, math.log1p(-0.5), 0.0,
                                 math.log(0.1), 1.0, 0.2 / (1.0 - 0.9),
                                 {"x": 1})
        assert sb.value == pytest.approx(0.35, rel=1e-12)
        assert sb.log_value == pytest.approx(math.log(0.35), rel=1e-12)
        assert set(sb.constants_used) == {"x", "log_C", "log_one_minus_rate",
                                          "log_gamma", "V0", "drift",
                                          "kappa"}
        assert sb.constants_used["kappa"] == pytest.approx(2.0)

    def test_rate_one_needs_zero_gap(self):
        with pytest.raises(InadmissibleError, match="no contraction"):
            _perturbation_bound("P", 3, -math.inf, 0.0, math.log(0.1), 1.0,
                                1.0, {})
        sb = _perturbation_bound("P", math.inf, -math.inf, 0.0, -math.inf,
                                 1.0, 1.0, {})
        assert sb.value == 0.0 and sb.log_value == -math.inf

    def test_negative_rate_rejected(self):
        with pytest.raises(InadmissibleError, match="no contraction"):
            _perturbation_bound("P", 3, 0.1, 0.0, 0.0, 1.0, 1.0, {})


class TestBoundStronglyConvex:
    C = const(mu=1.0, E=1.0)

    def test_worked_value(self):
        sb = bound_strongly_convex(self.C, 0.01, 100, 0.0, math.inf)
        assert sb.value == pytest.approx(0.72, rel=1e-12)

    def test_k_zero(self):
        assert bound_strongly_convex(self.C, 0.01, 100, 0.0, 0).value == 0.0

    def test_inadmissible_eta_named(self):
        with pytest.raises(InadmissibleError, match="64 D"):
            bound_strongly_convex(self.C, 0.05, 100, 0.0, math.inf)


class TestK0:
    def test_worked_value(self):
        assert k0_constant(1.0, 0.01, 1.0, 1.0, 1.0, 0.0, 0.5, 1.0) \
            == pytest.approx(2.44, rel=1e-12)

    def test_eta_zero(self):
        assert k0_constant(1.0, 0.0, 5.0, 5.0, 5.0, 0.0, 0.5, 1.0) \
            == pytest.approx(3.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(InadmissibleError):
            k0_constant(0.01, 0.5, 10.0, 10.0, 10.0, 0.0, 0.0, 0.0)


class TestEtaHatGaussian:
    def test_worked_second_branch(self):
        out = eta_hat_gaussian_log(
            [0.5], eta=0.1, m=1.0, K0=2.44, epsilon=0.5, K1=1.0,
            grad_at_star_sup=1.0, M_grid=[1.0])
        assert out["log_eta_hat"] == pytest.approx(
            LOG_ETA_HAT_FROZEN, rel=1e-12)
        row = out["branches"][0]
        assert row["log_branch_ratio"] == pytest.approx(
            BRANCH2_LOG_FROZEN, rel=1e-12)
        # the density-ratio branch dominates (is smaller)
        assert row["log_branch_ratio"] < row["log_branch_mass"]

    def test_mass_branch_vanishes_as_m_grows(self):
        out = eta_hat_gaussian_log(
            [0.5], eta=0.1, m=1.0, K0=2.44, epsilon=0.5, K1=1.0,
            grad_at_star_sup=1.0, M_grid=[1.0, 2.0, 3.0])
        masses = [r["log_branch_mass"] for r in out["branches"]]
        assert masses[2] > masses[1] > masses[0]
        assert masses[2] == pytest.approx(0.0, abs=1e-100)

    def test_sigma_bounds_enforced(self):
        for bad in ([0.0], [1.0], [-0.5], [1.5]):
            with pytest.raises(ValueError):
                eta_hat_gaussian_log(bad, 0.1, 1.0, 2.44, 0.5, 1.0, 1.0)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            eta_hat_gaussian_log([0.5], 0.1, 1.0, 2.44, 0.5, 1.0, 1.0,
                                 M_grid=[0.01])


class TestEtaBar:
    def test_worked_value(self):
        out = eta_bar(1.0, 0.01, 0.5, math.log(0.25), 2.44)
        assert out["eta_bar"] == pytest.approx(1.0 - 0.001875 / 4.75,
                                               rel=1e-14)
        assert out["eta_bar"] == pytest.approx(0.9996052631578948)

    def test_implied_constants(self):
        out = eta_bar(1.0, 0.01, 0.5, math.log(0.25), 2.44)
        assert out["psi"] == pytest.approx(0.25 / (2.0 * 0.01 * 2.44))
        assert set(out) == {"eta_bar", "log_one_minus_eta_bar", "log_psi",
                            "psi"}

    def test_eta_above_one_rejected(self):
        with pytest.raises(InadmissibleError):
            eta_bar(1.0, 1.5, 0.5, math.log(0.25), 2.44)

    def test_tiny_eta_hat_stays_representable(self):
        out = eta_bar(1.0, 0.01, 0.5, -2746.0, 2.44)
        assert out["eta_bar"] == 1.0          # rounds in float
        assert math.isfinite(out["log_one_minus_eta_bar"])
        assert out["log_one_minus_eta_bar"] < -2000

    def test_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = rng.uniform(0.1, 5.0)
            eta = rng.uniform(1e-4, min(1.0, 1.0 / m))
            eps = rng.uniform(0.01, 0.99)
            eh = rng.uniform(1e-6, 1.0 - 1e-6)
            out = eta_bar(m, eta, eps, math.log(eh), 2.44)
            assert 0.0 < out["eta_bar"] < 1.0


class TestBoundNonconvexNoisy:
    C = const(m=1.0, K=0.5)

    # K0, log_eta_hat and epsilon
    NOISY = (2.44, math.log(0.25), 0.5)

    def test_frozen_regression_value(self):
        sb = bound_nonconvex_noisy(self.C, 0.01, 1.0, 1, 100, 0.0,
                                   math.inf, *self.NOISY)
        assert sb.value == pytest.approx(NOISY_BOUND_FROZEN, rel=1e-12)

    def test_k_zero(self):
        sb = bound_nonconvex_noisy(self.C, 0.01, 1.0, 1, 100, 0.0, 0,
                                   *self.NOISY)
        assert sb.value == 0.0

    def test_inadmissible_eta(self):
        with pytest.raises(InadmissibleError):
            bound_nonconvex_noisy(self.C, 0.5, 1.0, 1, 100, 0.0, math.inf,
                                  *self.NOISY)

    def test_eta_bar_checked_before_step_size(self):
        # eta = 1.5 violates both; the reason an inadmissible bounds.json
        # records is eta_bar's
        with pytest.raises(InadmissibleError, match="eta <= 1"):
            bound_nonconvex_noisy(self.C, 1.5, 1.0, 1, 100, 0.0, math.inf,
                                  *self.NOISY)

    def test_log_value_finite_at_tiny_eta_hat(self):
        sb = bound_nonconvex_noisy(self.C, 0.01, 1.0, 1, 100, 0.0,
                                   math.inf, 2.44, LOG_ETA_HAT_FROZEN, 0.5)
        assert math.isfinite(sb.log_value)
        assert sb.value == math.inf   # too large for float, by design


class TestBoundNonconvexPlain:
    C = const(m=1.0, K=1.0)

    def test_worked_B(self):
        sb = bound_nonconvex_plain(self.C, 0.01, 1, 100, 0.0, math.inf)
        assert sb.constants_used["B"] == pytest.approx(14.14, rel=1e-12)

    def test_worked_value(self):
        sb = bound_nonconvex_plain(self.C, 0.01, 1, 100, 0.0, math.inf)
        assert sb.constants_used["term_batch"] == pytest.approx(
            0.046048, rel=1e-9)
        assert sb.constants_used["term_data"] == pytest.approx(
            2.89668, rel=1e-9)
        assert sb.value == pytest.approx(4.942728, rel=1e-9)

    def test_persistent_term_limit(self):
        sb = bound_nonconvex_plain(self.C, 0.01, 1, 10 ** 12, 0.0, math.inf)
        assert sb.value == pytest.approx(2.0, abs=1e-6)

    def test_nondecreasing_in_K(self):
        vals = [bound_nonconvex_plain(const(m=1.0, K=K), 0.01, 1, 100, 0.0,
                                      math.inf).value
                for K in (0.5, 1.0, 2.0)]
        assert vals[0] < vals[1] < vals[2]


class TestBoundSubconvex:
    C = const(mu=1.0, p=1.5, m=0.0)

    def test_worked_constants(self):
        sb = bound_subconvex(self.C, 0.01, 1, 100)
        assert sb.constants_used["C2"] == pytest.approx(C2_FROZEN, rel=1e-12)
        assert sb.constants_used["C3"] == pytest.approx(C3_FROZEN, rel=1e-12)
        assert sb.constants_used["C2"] == pytest.approx(0.58102, rel=1e-4)
        assert sb.constants_used["C3"] == pytest.approx(43.054, rel=1e-4)

    def test_both_denominator_readings_recorded(self):
        sb = bound_subconvex(self.C, 0.01, 1, 100)
        C2, C3 = sb.constants_used["C2"], sb.constants_used["C3"]
        assert sb.value == pytest.approx(C2 / 100.0 + C3 / 100.0)
        assert sb.constants_used["value_statement_reading"] == \
            pytest.approx(C2 / 100.0 + C3 / 100.0)

    def test_admissibility_boundary(self):
        lim = 1.0 / (1.0 + 2.0 ** 5.5)
        bound_subconvex(self.C, lim, 1, 100)          # boundary accepted
        with pytest.raises(InadmissibleError):
            bound_subconvex(self.C, lim * 1.001, 1, 100)

    def test_p_out_of_range(self):
        with pytest.raises(InadmissibleError):
            bound_subconvex(const(mu=1.0, p=2.0), 0.01, 1, 100)


# (regime, bound, whether bounds.json pairs its null value with a finite
# log_value): every regime at inputs whose value is not finite
NON_FINITE = {
    "Quadratic-inf": ("Quadratic", lambda: bound_quadratic(
        0.9, 0.9, 1.0, 1e150, 0.1, 1, 10, 1e300, math.inf), True),
    "Quadratic-nan": ("Quadratic", lambda: bound_quadratic(
        0.9, 0.9, 1.0, 1.0, 0.1, 1, 10, math.nan, math.inf), False),
    "StronglyConvex-inf": ("StronglyConvex", lambda: bound_strongly_convex(
        const(mu=1.0, E=1e150), 0.01, 100, 0.0, math.inf), True),
    "NonconvexNoisy-inf": ("NonconvexNoisy", lambda: bound_nonconvex_noisy(
        const(m=1.0, K=0.5), 0.01, 1.0, 1, 100, 0.0, math.inf, 2.44,
        LOG_ETA_HAT_FROZEN, 0.5), True),
    "NonconvexPlain-inf": ("NonconvexPlain", lambda: bound_nonconvex_plain(
        const(m=1.0, K=1e308), 0.01, 1, 100, 0.0, math.inf), False),
    # 0 * inf at k = 0
    "NonconvexPlain-nan": ("NonconvexPlain", lambda: bound_nonconvex_plain(
        const(m=1.0, K=1e308), 0.01, 1, 100, 0.0, 0), False),
    "SubConvexStationary-inf": ("SubConvexStationary",
                                lambda: bound_subconvex(const(
                                    mu=1.0, p=1.5, E=1e102, D=10.0), 1e-4,
                                    1, 1), False),
}


def test_every_regime_has_a_non_finite_case():
    assert {regime for regime, _, _ in NON_FINITE.values()} == set(REGIMES)


@pytest.mark.parametrize("case", NON_FINITE)
def test_null_beside_finite_log_value_is_an_overflow(case):
    # bounds.json writes inf and NaN alike as null; harness reads a null
    # beside a finite log_value whose exp overflows as +inf, and only
    # _perturbation_bound's overflow writes that pair (_log maps inf and
    # NaN to non-finite values)
    regime, bound, paired = NON_FINITE[case]
    sb = bound()
    rep = finite_or_null(sb.as_dict())
    assert sb.regime == regime and rep["value"] is None
    assert (rep["log_value"] is not None) == paired
    if paired:
        assert sb.value == math.inf
        with pytest.raises(OverflowError):
            math.exp(rep["log_value"])


class TestDissipativeRadius:
    def test_worked_value(self):
        assert dissipative_radius(1.0, 1.0, 0.0) == 1.0

    def test_zero_modulus(self):
        with pytest.raises(ValueError):
            dissipative_radius(0.0, 1.0, 1.0)


class TestStructuralProperties:
    def admissible_sets(self):
        rng = np.random.default_rng(77)
        out = []
        while len(out) < 20:
            c = const(m=rng.uniform(0.5, 2.0), K=rng.uniform(0.0, 1.0),
                      K1=rng.uniform(0.5, 1.5), K2=rng.uniform(0.5, 1.5),
                      D=rng.uniform(0.5, 1.5), E=rng.uniform(0.0, 1.0))
            lim = min(1.0 / c.m, c.m / (c.K1 ** 2 + 64 * c.D ** 2 * c.K2 ** 2))
            eta = rng.uniform(0.1, 0.9) * lim
            out.append((c, eta))
        return out

    def test_monotone_in_k_with_inf_limit(self):
        for c, eta in self.admissible_sets():
            ks = [0, 1, 2, 5, 10, 100, 1000]
            vals = [bound_nonconvex_plain(c, eta, 1, 50, 0.3, k).value
                    for k in ks]
            assert all(a <= b * (1 + 1e-12)
                       for a, b in zip(vals, vals[1:]))
            inf_val = bound_nonconvex_plain(c, eta, 1, 50, 0.3,
                                            math.inf).value
            assert vals[-1] <= inf_val * (1 + 1e-12)
            big = bound_nonconvex_plain(c, eta, 1, 50, 0.3, 10 ** 9).value
            assert big == pytest.approx(inf_val, rel=1e-9)

    def test_one_over_n_decay(self):
        # for each 1/n regime, bound(n) * n must be constant
        def quad(n):
            return bound_quadratic(0.9, 0.9, 1.0, math.sqrt(2.0), 0.1, 1, n,
                                   0.0, math.inf).value

        def sconv(n):
            return bound_strongly_convex(const(mu=1.0, E=1.0), 0.01, n, 0.0,
                                         math.inf).value

        def nnoisy(n):
            return bound_nonconvex_noisy(const(m=1.0, K=0.5), 0.01, 1.0, 1,
                                         n, 0.0, math.inf, 2.44,
                                         math.log(0.25), 0.5).value

        def subc(n):
            return bound_subconvex(const(mu=1.0, p=1.5), 0.01, 1, n).value

        for f in (quad, sconv, nnoisy, subc):
            ref = f(100) * 100
            for n in (200, 400, 1600):
                assert f(n) * n == pytest.approx(ref, rel=1e-12)
