import math
from pathlib import Path

import pytest

from reference import middle_fraction
from ubb84.channel import (
    ChannelParams,
    default_params,
    honest_statistics,
    load_params,
    parse_params,
    transmittance,
)
from ubb84.protocol import Variant, make_config


def stats_by_series(cfg, params, distance_km, mu, n_max=120):
    """Independent re-evaluation of the honest model by direct series summation."""
    eta_ch = 10.0 ** (-params.alpha_db_per_km * distance_km / 10.0)
    receiver = cfg.receiver
    eta = eta_ch * params.eta_det * receiver.kept
    y0, e_d = params.y0, params.e_d

    def poisson(n):
        return math.exp(-mu) * mu**n / math.factorial(n)

    click = err = 0.0
    for n in range(n_max + 1):
        a_n = 1.0 - (1.0 - eta) ** n
        d_n = a_n + 2.0 * y0 * (1.0 - a_n)
        click += poisson(n) * d_n
        err += poisson(n) * (e_d * a_n + y0 * (1.0 - a_n))
    return {
        "p_click_total": click,
        "p_click_s": poisson(1) * (eta + 2.0 * y0 * (1.0 - eta)),
        "q_tot": err / click,
        "q_single": (e_d * eta + y0) / (eta + 2.0 * y0),
        "p_lost": 1.0 - eta_ch * params.eta_det * receiver.survival,
    }


class TestTransmittance:
    def test_zero_distance(self):
        assert transmittance(default_params(), 0.0) == 1.0

    def test_twenty_km(self):
        assert transmittance(default_params(), 20.0) == pytest.approx(0.3802, abs=1e-4)

    def test_fifty_km(self):
        assert transmittance(default_params(), 50.0) == pytest.approx(0.0891, abs=1e-4)


# (survival, kept, xi_effective, weights) at kappa = 1/2, where xi = 2/3
HALF_KAPPA_RECEIVERS = {
    Variant.UNBALANCED: (3 / 4, 1 / 3, 2 / 3, (1 / 3, 2 / 3)),
    Variant.PBS: (5 / 6, 5 / 6, 2 / 3, (1.0, 1.0)),
    Variant.FIX_LOSS: (1 / 2, 1 / 4, 1 / 2, (1.0, 1.0)),
    Variant.FIX_UNEVEN_BS: (2 / 3, 1 / 3, 1 / 2, (1.0, 1.0)),
}


class TestApparatus:
    def test_balanced_unbalanced(self):
        receiver = make_config(1.0).receiver
        assert receiver.kept == pytest.approx(0.5)
        assert receiver.survival == pytest.approx(1.0)

    def test_pbs_lossless_limit(self):
        assert make_config(1.0, Variant.PBS).receiver.survival == pytest.approx(1.0)

    def test_half_kappa_table(self):
        for variant, (survival, kept, xi_effective, weights) in HALF_KAPPA_RECEIVERS.items():
            receiver = make_config(0.5, variant).receiver
            assert receiver.survival == pytest.approx(survival), variant
            assert receiver.kept == pytest.approx(kept), variant
            assert receiver.xi_effective == pytest.approx(xi_effective), variant
            assert receiver.weights == pytest.approx(weights), variant

    def test_unbalanced_middle_fraction(self):
        cfg = make_config(0.5)
        xi = cfg.xi
        assert cfg.receiver.survival == pytest.approx(1 / (2 * xi))
        assert middle_fraction(cfg.receiver) == pytest.approx(2 * xi * (1 - xi))

    def test_unbalanced_beats_fix_loss(self):
        for kappa in (0.1, 0.4, 0.7, 0.99):
            unb = make_config(kappa).receiver.kept
            fix = make_config(kappa, Variant.FIX_LOSS).receiver.kept
            assert unb >= fix
        assert make_config(1.0).receiver.kept == pytest.approx(
            make_config(1.0, Variant.FIX_LOSS).receiver.kept
        )


class TestHonestStatistics:
    def test_noiseless_limit(self):
        params = default_params()._replace(y0=0.0, e_d=0.0)
        stats = honest_statistics(make_config(1.0), params, 10.0)(0.1)
        assert stats.q_single == 0.0
        assert stats.q_tot == 0.0

    def test_dark_count_dominated_limit(self):
        stats = honest_statistics(make_config(1.0), default_params(), 500.0)(0.1)
        assert stats.q_single == pytest.approx(0.5, abs=1e-3)
        assert stats.q_tot == pytest.approx(0.5, abs=1e-3)

    def test_against_series_reimplementation(self):
        for variant in Variant:
            for distance in (0.0, 20.0, 45.0):
                cfg = make_config(0.8, variant)
                stats = honest_statistics(cfg, default_params(), distance)(0.1)
                oracle = stats_by_series(cfg, default_params(), distance, 0.1)
                for field, expected in oracle.items():
                    assert getattr(stats, field) == pytest.approx(expected, abs=1e-12), field

    def test_qber_bounds_and_distance_monotonicity(self):
        cfg = make_config(0.7)
        params = default_params()
        prev_click, prev_q = None, None
        for distance in (0.0, 10.0, 20.0, 40.0, 80.0, 120.0):
            stats = honest_statistics(cfg, params, distance)(0.1)
            assert params.e_d - 1e-12 <= stats.q_tot <= 0.5 + 1e-12
            if prev_click is not None:
                assert stats.p_click_total <= prev_click + 1e-15
                assert stats.q_tot >= prev_q - 1e-15
            prev_click, prev_q = stats.p_click_total, stats.q_tot

    def test_single_photon_accounting(self):
        for variant in Variant:
            cfg = make_config(0.45, variant)
            params = default_params()
            stats = honest_statistics(cfg, params, 15.0)(0.1)
            arrived = cfg.receiver.survival * transmittance(params, 15.0) * params.eta_det
            assert stats.p_lost + arrived == pytest.approx(1.0, abs=1e-12)

    # the operating point is an argument, checked where it is used
    @pytest.mark.parametrize("distance_km", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_distance(self, distance_km):
        with pytest.raises(ValueError, match="distance must be finite and nonnegative"):
            honest_statistics(make_config(0.5), default_params(), distance_km)(0.1)

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_mu(self, mu):
        with pytest.raises(ValueError, match="mu must be finite and positive"):
            honest_statistics(make_config(0.5), default_params(), 0.0)(mu)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            default_params()._replace(eta_det=0.0)
        with pytest.raises(ValueError):
            default_params()._replace(e_d=0.5)
        with pytest.raises(ValueError):
            default_params()._replace(f_ec=0.9)
        with pytest.raises(ValueError, match="y0"):
            default_params()._replace(y0=0.9)

    @pytest.mark.parametrize("field", ["alpha_db_per_km", "eta_det", "y0", "e_d", "f_ec"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            default_params()._replace(**{field: value})

    def test_parse_round_trip(self):
        text = """
        # fiber
        alpha_db_per_km = 0.18
        eta_det = 0.1
        y0 = 1e-6
        e_d = 0.02
        f_ec = 1.1
        """
        params = parse_params(text)
        assert params == ChannelParams(0.18, 0.1, 1e-6, 0.02, 1.1)

    def test_shipped_example_is_the_default_preset(self):
        example = Path(__file__).resolve().parents[1] / "presets" / "example.preset"
        assert load_params(example) == default_params()

    def test_parse_partial_uses_defaults(self):
        params = parse_params("e_d = 0.01\n")
        assert params.e_d == 0.01
        assert params.alpha_db_per_km == default_params().alpha_db_per_km

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_params("dark_rate = 1e-6\n")
        # distance and mu are the operating point, not channel parameters
        for key in ("distance_km", "mu"):
            with pytest.raises(ValueError, match="unknown key"):
                parse_params(f"{key} = 1\n")

    def test_parse_rejects_duplicates_and_garbage(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_params("y0 = 1e-6\ny0 = 2e-6\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_params("just words\n")
