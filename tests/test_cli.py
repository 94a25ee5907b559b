import math

import numpy as np
import pytest

import roadfield as rf
from roadfield.cli import main, validate_suites


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


def test_unknown_set_key_rejected(tmp_path):
    assert main(["speed", "--set", "bogus=1", "--out-dir", str(tmp_path)]) == 2


def test_speed_output_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "D=4\n")
    main(["speed", "--config", str(cfg), "--out-dir", str(tmp_path)])
    first = (tmp_path / "speed.csv").read_bytes()
    main(["speed", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert (tmp_path / "speed.csv").read_bytes() == first


# --- sweep ---------------------------------------------------------------------------


def test_sweep_table(tmp_path, monkeypatch):
    monkeypatch.setenv("ROADFIELD_THREADS", "2")
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
    assert (tmp_path / "mass.csv").exists()
    assert (tmp_path / "fronts.csv").exists()
    speed_line = (tmp_path / "speed.csv").read_text().splitlines()[1]
    assert float(speed_line.split(",")[0]) > 0.0


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


def test_env_thread_cap_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("ROADFIELD_THREADS", "nope")
    assert main(["sweep", "--D-list", "1,2", "--out-dir", str(tmp_path)]) == 2
