"""Sweep the corner value and compare the exact infinity norm with its bounds.

The five regimes of the upper bound fire in turn as b_tilde crosses
its breakpoints; the bound is tight for b_tilde > 1 and exact at odd n for
b_tilde <= 0.
"""

from neartoeplitz import (
    MatrixConfig, exact_infinity_norm, lower_bound, singularity_report, upper_bound,
)

n, b = 13, 2
print(f"n = {n}, b = {b}; breakpoints at 0, {(n-3)/(n-1):.4f}, {(n-2)/(n-1):.4f}, 1")
print()
print(f"{'b_tilde':>8}  {'lower':>10}  {'exact norm':>10}  {'upper':>10}  {'gap %':>6}  branch")

for bt in (-6.0, -2.28, -0.5, 0.0, 0.3, 0.62, 0.87, 0.93, 0.97, 1.8, 3.0, 5.93, 11.0):
    if singularity_report(n, b, bt)["singular"]:
        print(f"{bt:>8}  {'singular':>10}")
        continue
    cfg = MatrixConfig(n, b, bt)
    lower, exact, ub = lower_bound(cfg), exact_infinity_norm(cfg), upper_bound(cfg)
    gap = 100.0 * (ub.value - exact) / exact
    print(f"{bt:>8}  {lower:>10.4f}  {exact:>10.4f}  {ub.value:>10.4f}  {gap:>6.2f}  {ub.branch}")

print()
print("named intermediates of the max{S, T} branch at b_tilde = -2.28:")
print(" ", upper_bound(MatrixConfig(n, b, -2.28)).terms)
