import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def test_equal_models_compare_equal():
    # the logistic and the nu-scaled wrapper are values, not fresh lambdas
    assert rf.parse_config_text("D=4") == rf.parse_config_text("D=4")
    assert rf.ModelParams(D=4, d=1, mu=1) == rf.ModelParams(D=4, d=1, mu=1)
    assert rf.ModelParams(D=4, d=1, mu=1, f_prime_0=2.0) != rf.ModelParams(D=4, d=1, mu=1)
    p = rf.ModelParams(D=4, d=1, mu=1, nu=2.0)
    assert rf.normalize_nu(p) == rf.normalize_nu(p)
    assert rf.normalize_nu(p).reaction != rf.normalize_nu(replace(p, nu=3.0)).reaction


@given(s=st.floats(-2.0, 2.0), fp0=st.floats(0.01, 20.0), nu=st.floats(0.1, 10.0))
def test_reaction_values_keep_the_lambdas_bits(s, fp0, nu):
    # the arithmetic order of the lambdas the value types replace
    logistic = rf.ReactionFunction.logistic(fp0)
    assert logistic(s) == fp0 * s * (1.0 - s)
    scaled = rf.normalize_nu(rf.ModelParams(D=1, d=1, mu=1, nu=nu, f_prime_0=fp0)).reaction
    assert scaled(s) == (fp0 * s * (1.0 - s)) / nu


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


_coeff = st.floats(0.2, 5.0)   # d, mu, nu and f'(0)


def _brackets_meet(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Two certified brackets of one speed overlap, up to rounding of their parameters."""
    return max(a[0], b[0]) <= min(a[1], b[1]) * (1.0 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(d=_coeff, mu=_coeff, fp0=_coeff, ratio=st.floats(0.05, 40.0), k=st.floats(0.1, 10.0))
def test_normalize_nu_round_trips_the_speed(d, mu, fp0, ratio, k):
    # p has nu = 1, so its physical speed is c*(p) itself.  p_k is the same
    # model with time running k times faster (every rate times k, nu = k),
    # whose physical speed is k c*(p); normalize_nu must bring p_k back to p,
    # so nu times c* of the normalised set lands on it, within the brackets
    assume(abs(ratio - 2.0) > 1e-9)   # a rounding of D/d must not flip the regime
    p = rf.ModelParams(D=ratio * d, d=d, mu=mu, nu=1.0, f_prime_0=fp0)
    p_k = rf.ModelParams(D=k * p.D, d=k * d, mu=k * mu, nu=k, f_prime_0=k * fp0)
    direct = rf.critical_speed(p)
    back = rf.critical_speed(rf.normalize_nu(p_k))
    assert back.regime == direct.regime
    assert _brackets_meet(tuple(k * c for c in direct.bracket),
                          tuple(p_k.nu * c for c in back.bracket))


@settings(max_examples=25, deadline=None)
@given(d=_coeff, mu=_coeff, nu=_coeff, fp0=_coeff, ratio=st.floats(0.05, 40.0))
def test_symmetrize_full_plane_speed_is_the_reduced_half_plane_speed(d, mu, nu, fp0, ratio):
    # the whole-plane speed through symmetrize_full_plane and normalize_nu,
    # against the half-plane problem with mu/2 and 2 nu written out and
    # brought to nu = 1 by hand, multiplying every rate by 1/(2 nu)
    assume(abs(ratio - 2.0) > 1e-9)
    p = rf.ModelParams(D=ratio * d, d=d, mu=mu, nu=nu, f_prime_0=fp0)
    sym = rf.symmetrize_full_plane(p)
    whole = rf.critical_speed(rf.normalize_nu(sym))
    k = 1.0 / (2.0 * nu)
    half = rf.critical_speed(rf.ModelParams(D=k * p.D, d=k * d, mu=k * (0.5 * mu), nu=1.0,
                                            f_prime_0=k * fp0))
    assert whole.regime == half.regime
    assert _brackets_meet(tuple(sym.nu * c for c in whole.bracket),
                          tuple(c / k for c in half.bracket))


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


def test_parse_config_file_is_parse_config_text_on_its_text(tmp_path):
    text = "# fast road\nD=4\nmu=0.5\nnu=2\nfp0=1.5\n"
    path = tmp_path / "params.cfg"
    path.write_text(text, encoding="utf-8")
    from_file, from_text = rf.parse_config_file(path), rf.parse_config_text(text)
    assert from_file == from_text
    assert ((from_text.D, from_text.d, from_text.mu, from_text.nu, from_text.f_prime_0)
            == (4.0, 1.0, 0.5, 2.0, 1.5))


def test_parse_config_file_names_an_unreadable_file(tmp_path):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError, match="missing.cfg"):
        rf.parse_config_file(missing)
    latin = tmp_path / "latin.cfg"
    latin.write_bytes("D=4  # é\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="latin.cfg"):
        rf.parse_config_file(latin)
