"""Refinement study: how the measured speed approaches the exact one.

The spreading speed is an asymptotic object; any finite run measures it
with three bias sources: finite time (the dominant one for pulled fronts),
finite mesh, and domain truncation.  This script doubles each knob in turn
on the KPP baseline (D = d = 1, exact speed 2) and shows the measured gap
shrinking, which is the evidence backing the 10% acceptance tolerance on
the full-scale runs.  A mesh-doubling table on a fast road (D = 10) shows
the same for the multirate step, where the road is sub-cycled k times per
field step.

Run:  python3 demos/06_refinement_and_truncation.py   (about 10 s)
"""

import numpy as np

import roadfield as rf

params = rf.ModelParams(D=1.0, d=1.0, mu=1.0)
EXACT = 2.0


def measure(dx: float, t_end: float, y_max: float, params=params, speed=EXACT) -> float:
    half = np.ceil((speed * t_end + 25.0) / 10.0) * 10.0
    grid = rf.build_grid(-half, half, y_max, dx, dx, params, 0.4)
    every = max(1, int(round(0.25 / grid.dt)))
    record = rf.run(params, grid, rf.InitialDatum.compact_bump(), t_end=t_end,
                    snapshot_every=every)
    series = rf.front_series(record, grid, rf.Channel.ROAD, 0.5)
    return rf.fit_speed(series, 0.5).speed


print("exact speed for this parameter set: c* = c_KPP = 2\n")

print("time doubling at fixed mesh (dx = 0.25, y_max = 15):")
print(f"  {'t_end':>6}  {'measured':>10}  {'|gap|':>8}")
for t_end in (12.5, 25.0, 50.0):
    c = measure(0.25, t_end, 15.0)
    print(f"  {t_end:6.1f}  {c:10.5f}  {abs(c - EXACT):8.5f}")

print("\nmesh doubling at fixed horizon (t_end = 25, y_max = 15):")
print(f"  {'dx':>6}  {'measured':>10}  {'|gap|':>8}")
for dx in (1.0, 0.5, 0.25):
    c = measure(dx, 25.0, 15.0)
    print(f"  {dx:6.2f}  {c:10.5f}  {abs(c - EXACT):8.5f}")

fast = rf.ModelParams(D=10.0, d=1.0, mu=1.0)
c_fast = rf.critical_speed(fast).c_star
print(f"\nmesh doubling on a fast road (D = 10, c* = {c_fast:.5f}, t_end = 25, y_max = 15);")
print("run() sub-cycles the road k times per field step, with an error first order in k*dt:")
print(f"  {'dx':>6}  {'k':>3}  {'field dt':>9}  {'measured':>10}  {'|gap|':>8}")
for dx in (1.0, 0.5, 0.25):
    grid = rf.build_grid(-10.0, 10.0, 15.0, dx, dx, fast, 0.4)
    k = rf.simulate.road_substeps(grid, fast)
    c = measure(dx, 25.0, 15.0, fast, c_fast)
    print(f"  {dx:6.2f}  {k:3d}  {k * grid.dt:9.5f}  {c:10.5f}  {abs(c - c_fast):8.5f}")

print("\ndomain-height doubling (truncation check, dx = 0.25, t_end = 25):")
print(f"  {'y_max':>6}  {'measured':>10}")
speeds = []
for y_max in (7.5, 15.0, 30.0):
    c = measure(0.25, 25.0, y_max)
    speeds.append(c)
    print(f"  {y_max:6.1f}  {c:10.5f}")
print(f"  doubling the lid moves the measurement by {abs(speeds[-1] - speeds[-2]):.2e}: "
      "the mirror-wall truncation is not what limits accuracy")

print("\nthe dominant residual gap is the slow finite-time approach of pulled "
      "fronts; it decays like 1/t_end, as the first table shows.")
