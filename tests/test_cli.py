import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import roadfield as rf
from roadfield import cli, dispersion, simulate
from roadfield.cli import _steady_t_end, main, validate_suites


def write_config(tmp_path, text, name="params.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- speed ---------------------------------------------------------------------------


def test_speed_subthreshold_row(tmp_path, capsys):
    cfg = write_config(tmp_path, "D=1\nd=1\nmu=1\nfp0=1\n")
    assert main(["speed", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    header, row = (tmp_path / "speed.csv").read_text().splitlines()
    assert header == "D,d,mu,fp0,c_kpp,c_star,regime"
    fields = row.split(",")
    assert float(fields[4]) == 2.0
    assert float(fields[5]) == 2.0
    assert fields[6] == "SubThreshold"
    assert row in capsys.readouterr().out


def test_speed_superthreshold_row(tmp_path):
    cfg = write_config(tmp_path, "D=4\n")
    assert main(["speed", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    row = (tmp_path / "speed.csv").read_text().splitlines()[1].split(",")
    assert float(row[5]) > 2.0
    assert row[6] == "SuperThreshold"


def test_speed_applies_set_overrides(tmp_path):
    cfg = write_config(tmp_path, "D=1\n")
    assert main(["speed", "--config", str(cfg), "--set", "D=4",
                 "--out-dir", str(tmp_path)]) == 0
    row = (tmp_path / "speed.csv").read_text().splitlines()[1].split(",")
    assert float(row[0]) == 4.0 and float(row[5]) > 2.0


def test_malformed_config_exits_nonzero_without_output(tmp_path, capsys):
    cfg = write_config(tmp_path, "D=1\nwhat=3\n")
    out_dir = tmp_path / "fresh"
    assert main(["speed", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["D=nan", "D=inf", "mu=inf", "fp0=nan"])
def test_non_finite_parameter_is_a_config_error(tmp_path, capsys, override):
    out_dir = tmp_path / "fresh"
    assert main(["speed", "--set", override, "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("speed", "--set", "bogus=1"),
    # the strip height comes only from --L, the reaction only from the config file
    ("strip", "--L", "10", "--set", "L=20"),
    ("speed", "--set", "reaction=logistic"),
    # each verb takes only the knobs it reads
    ("speed", "--set", "dx=0.1"),
    ("limit", "--set", "t_end=5"),
    ("validate", "--set", "tol=1e-3"),
    ("strip", "--L", "20", "--set", "window_fraction=0.2"),
], ids=["bogus", "L", "reaction", "speed-dx", "limit-t_end", "validate-tol",
        "strip-window_fraction"])
def test_unknown_set_key_rejected(tmp_path, argv):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2


_KPP_TINY = ("simulate", "--preset", "kpp", "--set", "t_end=1", "--set", "x_min=-10",
             "--set", "x_max=10", "--set", "y_max=4", "--set", "dx=0.5", "--set", "dy=0.5")
# each of these once printed a wrong number, passed vacuously or ended in a traceback
BAD_VALUES = {
    "speed-tol-nan": ("speed", "--set", "D=4", "--set", "tol=nan"),
    "strip-tol-nan": ("strip", "--set", "D=4", "--L", "20", "--set", "tol=nan"),
    "limit-tol-nan": ("limit", "--set", "tol=nan"),
    "strip-L-nan": ("strip", "--set", "D=4", "--L", "nan"),
    "strip-L-inf": ("strip", "--set", "D=4", "--L", "inf"),
    "speed-tol-0": ("speed", "--set", "tol=0"),
    "limit-tol-neg": ("limit", "--set", "tol=-1"),
    "sweep-nan": ("sweep", "--D-list", "4,nan"),
    "sweep-zero": ("sweep", "--D-list", "0,4"),
    "missing-config": ("speed", "--config", "MISSING"),
    "safety-0": ("simulate", "--preset", "kpp", "--set", "safety=0"),
    "snapshot_every-0": ("simulate", "--preset", "kpp", "--set", "snapshot_every=0"),
    "t_end-nan": ("simulate", "--preset", "kpp", "--set", "t_end=nan"),
    "dx-0": ("simulate", "--preset", "kpp", "--set", "dx=0"),
    "dx-1e-300": ("simulate", "--preset", "kpp", "--set", "dx=1e-300"),   # dx^2 underflows
    "dx-not-dividing": ("simulate", "--preset", "kpp", "--set", "dx=0.7"),
    "x-reversed": ("simulate", "--preset", "kpp", "--set", "x_min=5", "--set", "x_max=-5"),
    "window_fraction-0": (*_KPP_TINY, "--set", "window_fraction=0"),
    "seeds-0": ("validate", "--set", "seeds=0"),
    # t_end / dt overflows: the sized domain and the step count are not finite
    "enhanced-t_end-huge": ("simulate", "--preset", "enhanced", "--set", "t_end=1e308"),
    "kpp-t_end-huge": ("simulate", "--preset", "kpp", "--set", "t_end=1e308"),
    # finite, but about 5e16 cell updates
    "kpp-t_end-1e9": ("simulate", "--preset", "kpp", "--set", "t_end=1e9"),
}


@pytest.mark.parametrize("argv", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
def test_a_bad_value_is_a_config_error_before_any_output(tmp_path, capsys, argv):
    out_dir = tmp_path / "fresh"
    argv = [str(tmp_path / "missing.cfg") if a == "MISSING" else a for a in argv]
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out_dir.exists()


def test_a_preset_sits_between_the_config_and_set(tmp_path, capsys):
    cfg = write_config(tmp_path, "D=4\nmu=2\n")
    tiny = ["simulate", "--preset", "conservation", "--config", str(cfg), "--set", "t_end=0.01",
            "--set", "x_min=-5", "--set", "x_max=5", "--set", "y_max=3"]
    assert main([*tiny, "--out-dir", str(tmp_path / "a")]) == 0
    assert "(SubThreshold)" in capsys.readouterr().out   # the preset's D = 1 wins over the config
    assert main([*tiny, "--set", "D=4", "--out-dir", str(tmp_path / "b")]) == 0
    assert "(SuperThreshold)" in capsys.readouterr().out


def test_the_cached_parser_carries_no_option_into_the_next_call(tmp_path):
    # the parser is built once per process; every call must still see only
    # its own argv, so a bare call after overrides writes the default row
    cfg = write_config(tmp_path, "D=4\nmu=2\n")
    assert main(["speed", "--config", str(cfg), "--set", "D=7", "--set", "tol=1e-4",
                 "--out-dir", str(tmp_path / "first")]) == 0
    assert main(["speed", "--out-dir", str(tmp_path / "second")]) == 0
    assert (tmp_path / "second" / "speed.csv").read_bytes() == (
        b"D,d,mu,fp0,c_kpp,c_star,regime\n1,1,1,1,2,2,SubThreshold\n")
    assert main(["strip", "--L", "20", "--set", "D=4", "--out-dir", str(tmp_path / "third")]) == 0
    assert main(["strip", "--out-dir", str(tmp_path / "fourth")]) == 2   # no --L left over


def test_speed_output_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "D=4\n")
    main(["speed", "--config", str(cfg), "--out-dir", str(tmp_path)])
    first = (tmp_path / "speed.csv").read_bytes()
    main(["speed", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert (tmp_path / "speed.csv").read_bytes() == first


# --- sweep ---------------------------------------------------------------------------


def test_sweep_table(tmp_path):
    assert main(["sweep", "--D-list", "1,2,4,16,64,256,1024",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "D,d,mu,fp0,c_kpp,c_star,regime,c_star_over_sqrtD"
    rows = [line.split(",") for line in lines[1:]]
    d_vals = [float(r[0]) for r in rows]
    assert d_vals == [1.0, 2.0, 4.0, 16.0, 64.0, 256.0, 1024.0]
    c_stars = [float(r[5]) for r in rows]
    # sub-threshold entries pinned at c_KPP, then strictly increasing
    assert c_stars[0] == 2.0 and c_stars[1] == 2.0
    assert all(b > a for a, b in zip(c_stars[1:], c_stars[2:]))
    # the scaled column approaches the proven window for the largest D
    ratio_sq = float(rows[-1][7]) ** 2
    lo, hi = rf.limit_bounds(rf.ModelParams(D=1, d=1, mu=1))
    assert lo <= ratio_sq <= hi


# exact CSV text of the solver verbs; a change that moves a digit must update these
# and say which digits moved and why
PINNED_CSV = {
    ("speed", "--set", "D=4"): (
        "speed.csv",
        "D,d,mu,fp0,c_kpp,c_star,regime\n"
        "4,1,1,1,2,2.269289220080505,SuperThreshold\n",
    ),
    ("sweep", "--D-list", "1,2,4,16,64,256,1024,1e5"): (
        "sweep.csv",
        "D,d,mu,fp0,c_kpp,c_star,regime,c_star_over_sqrtD\n"
        "1,1,1,1,2,2,SubThreshold,2\n"
        "2,1,1,1,2,2,SubThreshold,1.4142135623730949\n"
        "4,1,1,1,2,2.269289220080505,SuperThreshold,1.1346446100402525\n"
        "16,1,1,1,2,3.9492677880527989,SuperThreshold,0.98731694701319972\n"
        "64,1,1,1,2,7.6454471721105923,SuperThreshold,0.95568089651382404\n"
        "256,1,1,1,2,15.168583113719118,SuperThreshold,0.94803644460744485\n"
        "1024,1,1,1,2,30.276515645324888,SuperThreshold,0.94614111391640277\n"
        "100000,1,1,1,2,298.9987841177412,SuperThreshold,0.94551717543304092\n",
    ),
    ("strip", "--set", "D=4", "--L", "20"): (
        "strip.csv",
        "D,d,mu,fp0,L,c_kpp,c_star_L,c_star\n"
        "4,1,1,1,20,2,2.2689838660931452,2.269289220080505\n",
    ),
    ("limit",): (
        "limit.csv",
        "d,mu,fp0,c_limit,c_limit_sq,low_bound,high_bound\n"
        "1,1,1,0.9455107237412268,0.89399052870965845,0.23606797749978969,1\n",
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_CSV), ids=lambda argv: argv[0])
def test_solver_csv_bytes_are_pinned(tmp_path, capsys, argv):
    name, text = PINNED_CSV[argv]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / name).read_bytes() == text.encode("utf-8")
    assert capsys.readouterr().out == text


_SHRUNK = ("--set", "t_end=10", "--set", "dx=0.5", "--set", "dy=0.5", "--set", "y_max=8",
           "--set", "window_fraction=1")
# sha256 of the stdout and of every file of the simulate and validate verbs:
# exit code, stdout, {file: digest}; a change that moves a byte must update
# these and say what moved and why
PINNED_SHA256 = {
    ("validate",): (
        0, "6c1547e6c1c06d633291aa3e920e1cafb57fd1a0d61de13df25b03d52a358cff",
        {"validate.csv": "15f42222f917009242d536b899975ac8d8abc26412be8f6f47b1807d3e85bb2d"},
    ),
    ("validate", "--set", "safety=2"): (
        1, "a65d8691ada45346809e8ed154f1eef4d3d113c0d74b37c6e58794b43b45cb09",
        {"validate.csv": "951d635486f4ecaf24cfed2f65969bcb42f8dc0a24c52673ecc6ff589d97a67a"},
    ),
    ("simulate", "--preset", "kpp", *_SHRUNK, "--set", "x_min=-40", "--set", "x_max=40"): (
        0, "17adce4f15ab3ac00372e9178f381e6448a562eb66b152595991e967e9d55839",
        {"fronts.csv": "339b0bd3f0c6fffc586e564d08209f873b7568553abf117b9e30101c2553f99f",
         "mass.csv": "13867a6af31028216161ef5ba88cfde6ef0537a9f4eaa2d13f1831ef115e8dfa",
         "speed.csv": "e4809811c2de0b9cb5ca69894a9ec0b339114db1d91c407d2d4dfc1011d9ca8c"},
    ),
    ("simulate", "--preset", "enhanced", *_SHRUNK, "--set", "snapshot_every=40"): (
        0, "87dfe81e51d1f7603c3e022412dc64b3191b2776cfec733f0db3c83388cb322c",
        {"fronts.csv": "74399f5c42ee8bdeaa15220f83abceb00dc99133255c2415209244d1556969b1",
         "mass.csv": "07ddb18e30d108ea3d980bdf51d8b8a1c912492414bf2f5f2e2707df144466ab",
         "speed.csv": "2bed3ad88747c8006ebdcd4e94842251232cc203cfe56569a4e46823694eb0ad"},
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_SHA256),
                         ids=["validate", "validate_safety2", "simulate_kpp", "simulate_enhanced"])
def test_simulate_and_validate_bytes_are_pinned(tmp_path, capsys, argv):
    code, out_digest, file_digests = PINNED_SHA256[argv]
    assert main([*argv, "--out-dir", str(tmp_path)]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == out_digest
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == file_digests


def test_sweep_rejects_unsorted_or_empty(tmp_path):
    assert main(["sweep", "--D-list", "4,2", "--out-dir", str(tmp_path)]) == 2
    assert main(["sweep", "--D-list", "", "--out-dir", str(tmp_path)]) == 2


# --- strip and limit --------------------------------------------------------------------


def test_strip_row(tmp_path):
    cfg = write_config(tmp_path, "D=4\n")
    assert main(["strip", "--L", "20", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == 0
    row = (tmp_path / "strip.csv").read_text().splitlines()[1].split(",")
    c_kpp, c_L, c_star = float(row[5]), float(row[6]), float(row[7])
    assert c_kpp < c_L < c_star


def test_strip_needs_height(tmp_path):
    cfg = write_config(tmp_path, "D=4\n")
    assert main(["strip", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


def test_strip_small_height_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path, "D=2.5\n")
    code = main(["strip", "--L", "0.05", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "too small" in capsys.readouterr().err


def test_limit_row(tmp_path):
    assert main(["limit", "--out-dir", str(tmp_path)]) == 0
    row = (tmp_path / "limit.csv").read_text().splitlines()[1].split(",")
    c_limit, c_sq, lo, hi = (float(v) for v in row[3:7])
    assert lo <= c_sq <= hi
    assert c_limit == pytest.approx(math.sqrt(c_sq), rel=1e-12)


def test_limit_at_a_huge_exchange_rate_writes_no_warning(tmp_path):
    # mu d b overflowed in the exchange term h(b) on the limit's b interval,
    # whose top is about 1e75 here; the suite turns a RuntimeWarning into an error
    assert main(["limit", "--set", "mu=1e300", "--out-dir", str(tmp_path)]) == 0
    row = (tmp_path / "limit.csv").read_text().splitlines()[1].split(",")
    c_sq, lo, hi = (float(v) for v in row[4:7])
    assert lo <= c_sq <= hi


# --- every dispersion search ends ----------------------------------------------------------

# inputs on which a dispersion search used to run on without end, returned
# its first bracket end c_KPP + 1 after numpy warnings, or ended in a
# traceback: argv, and the ModelParams keywords they set
EXTREME_INPUTS = {
    "limit-mu1e60": (("limit", "--set", "mu=1e60"), {"mu": 1e60}),
    "speed-nu1e100": (("speed", "--set", "D=4", "--set", "nu=1e100"), {"D": 4.0, "nu": 1e100}),
    "speed-fp0_1e40": (("speed", "--set", "D=4", "--set", "fp0=1e40"), {"D": 4.0, "f_prime_0": 1e40}),
    "strip-fp0_1e40": (("strip", "--set", "D=4", "--set", "fp0=1e40", "--L", "1"),
                       {"D": 4.0, "f_prime_0": 1e40}),
    "speed-nu1e-300": (("speed", "--set", "D=4", "--set", "nu=1e-300"), {"D": 4.0, "nu": 1e-300}),
    "speed-fp0_1e17": (("speed", "--set", "D=4", "--set", "fp0=1e17"), {"D": 4.0, "f_prime_0": 1e17}),
    # c_KPP = 2e154, whose square overflows
    "speed-ck2_inf": (("speed", "--set", "D=4e154", "--set", "d=1e154", "--set", "fp0=1e154"),
                      {"D": 4e154, "d": 1e154, "f_prime_0": 1e154}),
    "strip-ck2_inf": (("strip", "--set", "D=4e154", "--set", "d=1e154", "--set", "fp0=1e154",
                       "--L", "1"), {"D": 4e154, "d": 1e154, "f_prime_0": 1e154}),
}


def _assert_certified_c_star(c_star: float, params: rf.ModelParams) -> None:
    """c_star (original time) is critical_speed's answer, and its bracket certifies it."""
    norm = rf.normalize_nu(params)
    res = rf.critical_speed(norm)
    lo, hi = res.bracket
    assert c_star == params.nu * res.c_star
    assert rf.c_kpp(norm) <= lo <= res.c_star <= hi and res.c_star != rf.c_kpp(norm) + 1.0
    assert rf.curve_gap(lo, norm) <= 0.0 < rf.curve_gap(hi, norm)


@pytest.mark.parametrize("argv, knobs", list(EXTREME_INPUTS.values()), ids=list(EXTREME_INPUTS))
def test_an_extreme_input_ends_in_a_certified_speed_or_a_named_error(tmp_path, argv, knobs):
    src = str(Path(rf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "roadfield.cli", *argv, "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    if proc.returncode == 1:
        assert proc.stderr.startswith("error: ") and proc.stdout == ""
        return
    assert proc.returncode == 0, proc.stderr
    params = rf.ModelParams(**{"D": 1.0, "d": 1.0, "mu": 1.0, **knobs})   # the CLI's defaults
    row = proc.stdout.splitlines()[1].split(",")
    if argv[0] == "limit":
        norm = rf.normalize_nu(params)
        c, (low, high) = float(row[3]), rf.limit_bounds(norm)
        assert c == rf.limit_speed(norm)
        tol = dispersion.DEFAULT_TOL
        assert math.sqrt(low) - tol <= c <= math.sqrt(high) + tol
    elif argv[0] == "speed":
        # D,d,mu,fp0,c_kpp,c_star,regime
        _assert_certified_c_star(float(row[5]), params)
    else:
        # D,d,mu,fp0,L,c_kpp,c_star_L,c_star
        assert float(row[5]) < float(row[6]) <= float(row[7]) + dispersion.DEFAULT_TOL
        _assert_certified_c_star(float(row[7]), params)


def test_c_star_past_2_to_53_is_certified(tmp_path, capsys):
    # c_KPP = 2e20: a first bracket step of 1 would round onto c_KPP
    argv, knobs = EXTREME_INPUTS["speed-fp0_1e40"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    params = rf.ModelParams(**{"D": 1.0, "d": 1.0, "mu": 1.0, **knobs})   # the CLI's defaults
    _assert_certified_c_star(float(row[5]), params)


# --- simulate -----------------------------------------------------------------------------


def test_simulate_conservation_preset_small(tmp_path, capsys):
    # shrunk via overrides to keep the unit test quick; acceptance runs it full-size
    code = main(["simulate", "--preset", "conservation", "--out-dir", str(tmp_path),
                 "--set", "t_end=0.5", "--set", "x_min=-15", "--set", "x_max=15",
                 "--set", "y_max=8", "--set", "dx=0.2", "--set", "dy=0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "relative mass drift" in out
    mass_lines = (tmp_path / "mass.csv").read_text().splitlines()
    masses = [float(line.split(",")[1]) for line in mass_lines[1:]]
    assert max(masses) - min(masses) <= 1e-9 * masses[0]
    # pure-exchange preset writes no front artifacts
    assert not (tmp_path / "fronts.csv").exists()


def test_simulate_kpp_preset_small(tmp_path, capsys):
    code = main(["simulate", "--preset", "kpp", "--out-dir", str(tmp_path),
                 "--set", "t_end=6", "--set", "x_min=-30", "--set", "x_max=30",
                 "--set", "y_max=10", "--set", "snapshot_every=20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "c_star=2" in out
    assert "road_substeps=1 field_dt=" in out
    assert (tmp_path / "mass.csv").exists()
    assert (tmp_path / "fronts.csv").exists()
    speed_line = (tmp_path / "speed.csv").read_text().splitlines()[1]
    assert float(speed_line.split(",")[0]) > 0.0


def test_simulate_enhanced_preset_reports_road_substeps(tmp_path, capsys):
    code = main(["simulate", "--preset", "enhanced", "--out-dir", str(tmp_path),
                 "--set", "t_end=20", "--set", "x_min=-80", "--set", "x_max=80",
                 "--set", "y_max=5", "--set", "dx=0.5", "--set", "dy=0.5",
                 "--set", "snapshot_every=40"])
    assert code == 0
    header = capsys.readouterr().out.splitlines()[0]
    # D=10, dx=dy=0.5: road bound 0.0125 against the field's 0.0625
    assert header == ("# preset=enhanced grid 321x11 dt=0.005000000000000001 steps=4000 "
                      "road_substeps=5 field_dt=0.025000000000000005")


def test_simulate_header_counts_the_steps_run_takes(tmp_path, capsys):
    # t_end/dt = 1.3: run takes ceil = 2 steps, which rounding would report as 1
    code = main(["simulate", "--preset", "conservation", "--out-dir", str(tmp_path),
                 "--set", "t_end=0.0013", "--set", "x_min=-5", "--set", "x_max=5",
                 "--set", "y_max=3"])
    assert code == 0
    header = capsys.readouterr().out.splitlines()[0]
    steps = int(header.split("steps=")[1].split()[0])
    dt = float(header.split("dt=")[1].split()[0])
    t_last = float((tmp_path / "mass.csv").read_text().splitlines()[-1].split(",")[0])
    assert steps == 2
    assert t_last == steps * dt


def test_an_unbounded_run_is_refused_within_a_second(tmp_path, capsys):
    start = time.perf_counter()
    assert main(["simulate", "--preset", "kpp", "--set", "t_end=1e9",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert "budget" in capsys.readouterr().err


class _Admitted(Exception):
    pass


def _refuse_to_run(*args, **kwargs):
    raise _Admitted


@pytest.mark.parametrize("preset", ["conservation", "kpp", "enhanced"])
def test_the_work_budget_admits_every_preset(tmp_path, monkeypatch, preset):
    monkeypatch.setattr(simulate, "run", _refuse_to_run)
    with pytest.raises(_Admitted):
        main(["simulate", "--preset", preset, "--out-dir", str(tmp_path)])


def test_the_work_budget_admits_a_strong_exchange():
    # validate --set nu=100 integrates its steady grid, folded, to t = 1000
    params = rf.ModelParams(D=1.0, d=1.0, mu=1.0, nu=100.0)
    grid = simulate.build_grid(-30.0, 30.0, 15.0, 0.25, 0.25, params, 0.4)
    n_steps = simulate._step_count(_steady_t_end(params), grid.dt)
    updates = (grid.nx // 2 + 1) * simulate._updates_per_column(grid, params, n_steps, 1000)
    assert 1e10 < updates <= cli.MAX_CELL_UPDATES


@pytest.mark.parametrize("x_max, admitted", [(40.0, True), (41.0, False)])
def test_the_work_budget_counts_the_folded_half(tmp_path, monkeypatch, x_max, admitted):
    # a budget of exactly the half domain's count: the centred bump folds on
    # [-40, 40] and not on [-40, 41]
    params = rf.ModelParams(D=1.0, d=1.0, mu=1.0)
    grid = simulate.build_grid(-40.0, x_max, 8.0, 0.5, 0.5, params, 0.4)
    per_column = simulate._updates_per_column(grid, params,
                                              simulate._step_count(10.0, grid.dt), 20)
    monkeypatch.setattr(cli, "MAX_CELL_UPDATES", (grid.nx // 2 + 1) * per_column)
    assert main(["simulate", "--preset", "kpp", *_SHRUNK, "--set", "x_min=-40",
                 "--set", f"x_max={x_max}", "--out-dir", str(tmp_path)]) == (0 if admitted else 2)


def test_simulate_unknown_preset(tmp_path):
    assert main(["simulate", "--preset", "kpp", "--set", "bogus=3",
                 "--out-dir", str(tmp_path)]) == 2


# --- validate ----------------------------------------------------------------------------


def test_validate_default_passes(tmp_path, capsys):
    code = main(["validate", "--out-dir", str(tmp_path),
                 "--set", "seeds=5", "--set", "steps=50"])
    assert code == 0
    out = capsys.readouterr().out
    for suite in ("check_kpp", "equilibrium", "conservation", "ordering",
                  "cfl_stability", "steady_state"):
        assert f"PASS {suite}" in out
    lines = (tmp_path / "validate.csv").read_text().splitlines()
    assert lines[0] == "suite,passed,value,limit,note"
    assert all(",true," in line for line in lines[1:])


def test_validate_oversized_dt_fails_loudly(tmp_path, capsys):
    code = main(["validate", "--out-dir", str(tmp_path), "--set", "safety=2",
                 "--set", "seeds=2", "--set", "steps=20"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL cfl_stability" in out


def test_validate_suites_flag_bad_reaction():
    # a reaction violating the KPP bound fails its suite (API-level designed failure)
    bad = rf.ModelParams(D=1, d=1, mu=1, f_prime_0=1,
                         reaction=rf.ReactionFunction(
                             lambda s: s * (1.0 - s) * (1.0 + 4.0 * s), 1.0))
    results = validate_suites(bad, seeds=2, steps=20)
    by_name = {r.suite: r for r in results}
    assert not by_name["check_kpp"].passed
    assert by_name["check_kpp"].value > 0.0


@pytest.mark.parametrize("seeds, steps", [(0, 1), (1, 0), (-1, 5)])
def test_validate_suites_rejects_an_empty_ordering_suite(seeds, steps):
    # seeds=0 once passed the ordering suite over no pairs
    with pytest.raises(ValueError, match="seeds and steps"):
        validate_suites(rf.ModelParams(D=1, d=1, mu=1), seeds=seeds, steps=steps)


@pytest.mark.parametrize("nu", ["4", "8"])
def test_validate_ordering_holds_under_strong_exchange(tmp_path, capsys, nu):
    # the road row's field centre weight loses 2*dt*nu/dy through the exchange
    # ghost; without the dy/(2nu) CFL term it goes negative here.  The road
    # also relaxes to nu/mu at rate 0.14 (nu = 4) or 0.078 (nu = 8), too
    # slowly for the default end time of 40: steady_state must wait for it
    code = main(["validate", "--out-dir", str(tmp_path), "--set", "d=0.5", "--set", f"nu={nu}",
                 "--set", "seeds=2", "--set", "steps=20"])
    out = capsys.readouterr().out
    assert "PASS ordering" in out and "PASS steady_state" in out
    rows = dict(line.split(",", 1) for line in
                (tmp_path / "validate.csv").read_text().splitlines()[1:])
    assert rows["ordering"].startswith("true,")
    assert code == 0


def test_steady_state_end_time_stays_40_at_the_defaults():
    assert _steady_t_end(rf.ModelParams(D=1, d=1, mu=1)) == 40.0
    assert 40.0 < _steady_t_end(rf.ModelParams(D=1, d=0.5, mu=1, nu=4)) <= 1000.0
    # a road that barely leaks would relax for ever: the end time is capped
    assert _steady_t_end(rf.ModelParams(D=1, d=1, mu=1e-6)) == 1000.0


def test_validate_steady_state_run_survives_a_heavy_road():
    # mu = 0.1, nu = 4: from a field bump of height 1 the road tends to
    # nu/mu = 40, four times the cap of 10 that used to bound both channels
    results = validate_suites(rf.ModelParams(D=1, d=1, mu=0.1, nu=4))
    assert [r.suite for r in results][-1] == "steady_state"


def test_validate_ordering_reports_what_one_pair_at_a_time_reports():
    # f = 30 s (1 - s) under f'(0) = 1 leaves dt too large for a monotone step:
    # seeds 8, 10 and 12 break at step 12, seed 0 at step 13; the batched suite
    # must report seed 0's worst violation, as the sequential loop does
    steep = rf.ReactionFunction(lambda s: 30.0 * s * (1.0 - s), 1.0)
    params = rf.ModelParams(D=1, d=1, mu=1, f_prime_0=1, reaction=steep)
    grid = rf.build_grid(-6.0, 6.0, 4.0, 0.5, 0.5, params, 0.4)
    expected = None
    for seed in range(20):
        rng = np.random.default_rng(20_000 + seed)
        u_lo, v_lo = 0.5 * rng.random(grid.nx), 0.5 * rng.random((grid.nx, grid.ny))
        lo = rf.FieldState(t=0.0, u=u_lo, v=v_lo)
        hi = rf.FieldState(t=0.0, u=u_lo + 0.5 * rng.random(grid.nx),
                           v=v_lo + 0.5 * rng.random((grid.nx, grid.ny)))
        for _ in range(200):
            lo, hi = rf.step(lo, params, grid), rf.step(hi, params, grid)
            if not rf.is_ordered(lo, hi):
                expected = max((lo.u - hi.u).max(), (lo.v - hi.v).max())
                break
        if expected is not None:
            break
    assert seed == 0 and expected > 0.0
    results = validate_suites(params)
    ordering = {r.suite: r for r in results}["ordering"]
    assert ordering.passed is False and ordering.value == expected
    # plain Python types in every suite, not numpy scalars
    assert all(type(r.passed) is bool and type(r.value) is float for r in results)
