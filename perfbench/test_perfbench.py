"""Tests of the benchmark's oracle, checks and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PARAMS = [
    oracle.Params(D=4.0, d=1.0, mu=1.0, nu=1.0, fp0=1.0),
    oracle.Params(D=3.3, d=0.7, mu=1.3, nu=1.7, fp0=0.8),
    oracle.Params(D=25.0, d=1.9, mu=0.6, nu=0.55, fp0=1.6),
]


def test_oracle_does_not_import_roadfield():
    probe = ("import sys; import oracle; "
             "sys.exit(any(m.split('.')[0] == 'roadfield' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", probe], cwd=HERE).returncode == 0


def test_oracle_known_speed():
    # the package README's worked example, D = 4, d = mu = nu = f'(0) = 1
    assert oracle.critical_speed(PARAMS[0]) == pytest.approx(2.2692892, abs=1e-7)


@pytest.mark.parametrize("p", PARAMS)
@pytest.mark.parametrize("share", [0.1, 0.5, 1.0])
def test_oracle_speed_is_c_kpp_up_to_2d(p, share):
    sub = oracle.Params(D=2.0 * p.d * share, d=p.d, mu=p.mu, nu=p.nu, fp0=p.fp0)
    assert oracle.critical_speed(sub) == p.nu * oracle.c_kpp(sub.normalized())


@pytest.mark.parametrize("p", PARAMS)
def test_oracle_gap_changes_sign_at_c_star(p):
    q = p.normalized()
    c = oracle.critical_speed(p) / p.nu
    assert c > oracle.c_kpp(q)
    assert oracle.half_plane_gap(c * (1.0 - 1e-7), q) < 0.0 < oracle.half_plane_gap(c * (1.0 + 1e-7), q)


@pytest.mark.parametrize("p", PARAMS)
def test_oracle_limit_lies_in_window(p):
    low, high = oracle.limit_window(p)
    c = oracle.limit_speed(p)
    assert low < c * c < high
    # c*/sqrt(D) approaches sqrt(nu) * limit from above
    far = oracle.Params(D=1e6, d=p.d, mu=p.mu, nu=p.nu, fp0=p.fp0)
    ratio = oracle.critical_speed(far) / math.sqrt(far.D)
    assert 0.0 < ratio - math.sqrt(p.nu) * c < 1e-4


@pytest.mark.parametrize("p", PARAMS)
def test_oracle_strip_speeds_rise_toward_c_star(p):
    floor = max(oracle.strip_height_floor(p), 0.0)
    speeds = [oracle.strip_critical_speed(p, floor + L) for L in (1.0, 2.0, 4.0)]
    assert oracle.c_kpp(p) < speeds[0] < speeds[1] < speeds[2] < oracle.critical_speed(p)


def test_speed_check_rejects_a_shift_of_1e_5():
    p = PARAMS[1]
    c = oracle.critical_speed(p)
    assert workloads.check_speed(c, c, p.nu) == []
    assert workloads.check_speed(c + 1e-5, c, p.nu)
    assert workloads.check_speed(c - 1e-5, c, p.nu)


def test_speed_check_rejects_the_cancelled_c_star_at_D_1e6():
    # roadfield's c* for D = 1e6, d = mu = nu = f'(0) = 1, 1.7e-8 off with tol = 1e-8
    c = oracle.critical_speed(workloads.FAR)
    assert workloads.check_speed(945.5113688893616, c, 1.0)
    assert workloads.check_speed(c, c, 1.0) == []


def test_cli_op_reads_only_the_files_of_its_own_call(tmp_path):
    op = workloads.cli_op("speed", ["speed", "--set", "D=4"], tmp_path / "o", lambda o: [])
    _, first = op.run()
    assert not op.failed(first) and "speed.csv" in first.files
    (tmp_path / "o" / "stale.csv").write_text("left over")
    _, second = op.run()
    assert second.files == first.files


def test_subthreshold_check_demands_exact_c_kpp():
    p = oracle.Params(D=1.0, d=0.7, mu=1.3, nu=1.7, fp0=0.8)
    exact = p.nu * oracle.c_kpp(p.normalized())
    assert workloads.check_subthreshold(exact, p) == []
    assert workloads.check_subthreshold(math.nextafter(exact, 0.0), p)


def test_pair_check_rejects_a_swapped_pair():
    rng = np.random.default_rng(0)
    lo_u, lo_v = rng.random(25), rng.random((25, 9))
    hi_u, hi_v = lo_u + rng.random(25), lo_v + rng.random((25, 9))
    assert workloads.check_pair_state(lo_u, lo_v, hi_u, hi_v) == []
    assert workloads.check_pair_state(hi_u, hi_v, lo_u, lo_v)
    assert workloads.check_pair_state(lo_u - 1.0, lo_v, hi_u, hi_v)


def test_front_check_rejects_a_speed_15_percent_off():
    c = oracle.critical_speed(oracle.Params(D=4.0, d=1.0, mu=1.0, nu=1.0, fp0=1.0))
    assert workloads.check_front_speed(0.95 * c, c) == []
    assert workloads.check_front_speed(0.85 * c, c)
    assert workloads.check_front_speed(1.15 * c, c)


def test_union_length_counts_overlap_once():
    intervals = [(0.0, 2.0, "a"), (1.0, 3.0, "b"), (5.0, 6.0, "c")]
    assert spans._union_length(intervals) == 4.0


def test_tracer_counts_calls_and_restores_functions():
    from roadfield import dispersion, params

    original = dispersion.critical_speed
    model = params.ModelParams(D=4.0, d=1.0, mu=1.0)
    with spans.Tracer() as tracer:
        dispersion.critical_speed(model)
    assert dispersion.critical_speed is original
    assert tracer.totals["dispersion.critical_speed"].calls == 1
    assert tracer.totals["dispersion.curve_gap"].calls > 1


def test_benchmark_file_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = run._per_layer(spans.Tracer(), 1, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "round_s", "op_p50_ms", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
