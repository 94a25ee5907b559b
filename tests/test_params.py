import math

import numpy as np
import pytest

import roadfield as rf
from roadfield.errors import ConfigError


def test_c_kpp_values():
    assert rf.c_kpp(rf.ModelParams(D=1, d=1, mu=1, f_prime_0=1)) == 2.0
    assert rf.c_kpp(rf.ModelParams(D=1, d=0.25, mu=1, f_prime_0=1)) == 1.0
    assert rf.c_kpp(rf.ModelParams(D=1, d=2, mu=1, f_prime_0=0.5)) == 2.0


def test_c_kpp_homogeneous():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d, fp0, k = rng.uniform(0.1, 5, size=3)
        base = rf.c_kpp(rf.ModelParams(D=1, d=d, mu=1, f_prime_0=fp0))
        scaled = rf.c_kpp(rf.ModelParams(D=1, d=d * k, mu=1, f_prime_0=fp0 * k))
        assert scaled == pytest.approx(k * base, rel=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        rf.ModelParams(D=-1, d=1, mu=1)
    with pytest.raises(ValueError):
        rf.ModelParams(D=1, d=0, mu=1)
    with pytest.raises(ValueError):
        rf.ModelParams(D=1, d=1, mu=-2)
    with pytest.raises(ValueError):
        rf.ModelParams(D=1, d=1, mu=1, nu=0)
    with pytest.raises(ValueError):
        rf.ModelParams(D=1, d=1, mu=1, f_prime_0=0)
    with pytest.raises(ValueError):
        rf.ModelParams(D=1, d=1, mu=1, f_prime_0=1,
                       reaction=rf.ReactionFunction.logistic(2.0))
    # D=0 is a legal degenerate road
    assert rf.ModelParams(D=0, d=1, mu=1).D == 0.0


@pytest.mark.parametrize("field", ["D", "d", "mu", "nu", "f_prime_0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    kwargs = {"D": 1.0, "d": 1.0, "mu": 1.0, "nu": 1.0, "f_prime_0": 1.0, field: value}
    with pytest.raises(ValueError, match="finite"):
        rf.ModelParams(**kwargs)


def test_default_reaction_is_matching_logistic():
    p = rf.ModelParams(D=1, d=1, mu=1, f_prime_0=3.0)
    assert p.reaction.name == "logistic"
    assert p.reaction(0.5) == pytest.approx(3.0 * 0.25)
    assert p.reaction.f_prime_0 == 3.0


# --- normalize_nu ------------------------------------------------------------


def test_normalize_nu_stated_rescaling():
    p = rf.ModelParams(D=2, d=1, mu=1, nu=2, f_prime_0=1)
    q = rf.normalize_nu(p)
    assert (q.D, q.d, q.mu, q.nu, q.f_prime_0) == (1.0, 0.5, 0.5, 1.0, 0.5)
    # the reaction is rescaled alongside
    assert q.reaction(0.5) == pytest.approx(p.reaction(0.5) / 2.0)


def test_normalize_nu_identity_and_idempotent():
    p = rf.ModelParams(D=2, d=1, mu=1, nu=1)
    assert rf.normalize_nu(p) is p
    q = rf.normalize_nu(rf.ModelParams(D=2, d=1, mu=1, nu=3))
    assert rf.normalize_nu(q) is q


def test_normalize_nu_speed_round_trip():
    # physical speed = nu * speed of the time-rescaled (nu=1) system, where the
    # rescaled system is built by hand here as the independent route
    p = rf.ModelParams(D=8, d=1.5, mu=0.7, nu=2.5, f_prime_0=1.2)
    by_hand = rf.ModelParams(D=p.D / p.nu, d=p.d / p.nu, mu=p.mu / p.nu,
                             nu=1.0, f_prime_0=p.f_prime_0 / p.nu)
    c_hand = rf.critical_speed(by_hand).c_star
    c_norm = rf.critical_speed(rf.normalize_nu(p)).c_star
    assert c_norm == pytest.approx(c_hand, abs=1e-12)
    # and both define the same physical speed nu*c
    assert p.nu * c_norm == pytest.approx(p.nu * c_hand, abs=1e-12)


# --- symmetrize_full_plane ----------------------------------------------------


def test_symmetrize_substitution():
    p = rf.ModelParams(D=1, d=1, mu=1, nu=1)
    q = rf.symmetrize_full_plane(p)
    assert (q.mu, q.nu) == (0.5, 2.0)
    qq = rf.symmetrize_full_plane(q)
    assert (qq.mu, qq.nu) == (0.25, 4.0)


def test_symmetrize_speed_matches_transformed_half_plane():
    p = rf.ModelParams(D=6, d=1, mu=1, nu=1)
    sym = rf.normalize_nu(rf.symmetrize_full_plane(p))
    # independent route: write the transformed constants out explicitly
    half = rf.normalize_nu(rf.ModelParams(D=6, d=1, mu=0.5, nu=2, f_prime_0=1))
    c_sym = p.nu * 2.0 * rf.critical_speed(sym).c_star  # nu of sym system is 2
    c_half = 2.0 * rf.critical_speed(half).c_star
    assert c_sym == pytest.approx(c_half, abs=1e-12)


# --- check_kpp ---------------------------------------------------------------


@pytest.mark.parametrize("n_samples", [2, 16, 256, 4097])
def test_check_kpp_logistic_true(n_samples):
    assert rf.check_kpp(rf.ReactionFunction.logistic(1.0), n_samples)


def test_check_kpp_scaled_logistic_true():
    assert rf.check_kpp(rf.ReactionFunction(lambda s: 2.0 * s * (1.0 - s), 2.0))


def test_check_kpp_rejects_overshooting_reaction():
    # f(0.5) = 0.75 > f'(0)*0.5
    f = rf.ReactionFunction(lambda s: s * (1.0 - s) * (1.0 + 4.0 * s), 1.0)
    res = rf.check_kpp(f, 64)
    assert not res
    assert res.violation is not None and 0.0 < res.violation < 1.0
    assert "f'(0)" in res.reason


def test_check_kpp_rejects_nonvanishing_at_one():
    f = rf.ReactionFunction(lambda s: s * (2.0 - s), 2.0)
    res = rf.check_kpp(f)
    assert not res and res.violation == 1.0


def test_check_kpp_rejects_positive_extension():
    f = rf.ReactionFunction(lambda s: np.abs(s * (1.0 - s)), 1.0)
    res = rf.check_kpp(f, 32)
    assert not res and res.violation > 1.0


def test_check_kpp_needs_two_samples():
    with pytest.raises(ValueError):
        rf.check_kpp(rf.ReactionFunction.logistic(), 1)


# --- config parsing ------------------------------------------------------------


def test_parse_config_round_trip():
    p = rf.parse_config_text("D=4\nd=1\nmu=0.5\nnu=2\nfp0=1.5\nreaction=logistic\n")
    assert (p.D, p.d, p.mu, p.nu, p.f_prime_0) == (4.0, 1.0, 0.5, 2.0, 1.5)


def test_parse_config_defaults_comments_blank():
    p = rf.parse_config_text("# defaults apart from D\n\nD = 3  # fast road\n")
    assert (p.D, p.d, p.mu, p.nu, p.f_prime_0) == (3.0, 1.0, 1.0, 1.0, 1.0)


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        rf.parse_config_text("D=1\nspeed=3\n")


def test_parse_config_bad_number():
    with pytest.raises(ConfigError, match="bad number"):
        rf.parse_config_text("D=fast\n")


def test_parse_config_custom_reaction_rejected():
    with pytest.raises(ConfigError, match="custom"):
        rf.parse_config_text("reaction=custom\n")


def test_parse_config_invalid_values_rejected():
    with pytest.raises(ConfigError):
        rf.parse_config_text("d=0\n")


@pytest.mark.parametrize("text", ["D=nan\n", "D=inf\n", "mu=inf\n", "fp0=-inf\n"])
def test_parse_config_non_finite_rejected(text):
    with pytest.raises(ConfigError, match="finite"):
        rf.parse_config_text(text)


def test_parse_config_missing_equals():
    with pytest.raises(ConfigError, match="key=value"):
        rf.parse_config_text("D 4\n")
