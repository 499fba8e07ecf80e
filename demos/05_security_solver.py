#!/usr/bin/env python3
"""Inverting the security criterion into concrete protocol parameters.

Given targets eps1 (key mismatch) and eps2 (eavesdropper information), the
solver returns the smallest hash-round count M and the block layout (n, k)
with the smallest n*k whose exact Hartley ratio makes every bound hold.
Without channel noise that layout is always k = 1: at a fixed n*k, single
bits give the largest parity set, and so the smallest eavesdropper
advantage.  The solver therefore bisects n at k = 1.
"""

from relqkd import solve_parameters

print("=" * 76)
print(f"{'eps1':>8} {'eps2':>8} {'N':>4} {'ratio':>6} | "
      f"{'k':>3} {'n':>4} {'M':>3} {'zeta':>10} {'I(A;E)':>10} {'I(B;E)':>10}")
print("=" * 76)
for eps1, eps2, n_key, ratio in [
    (1e-3, 1e-3, 64, 0.5),
    (1e-3, 1e-3, 64, 0.0),
    (1e-4, 1e-4, 128, 0.5),
    (1e-2, 1e-2, 16, 0.9),
]:
    params, report = solve_parameters(eps1, eps2, n_key, ratio)
    print(f"{eps1:8.0e} {eps2:8.0e} {n_key:4d} {ratio:6.2f} | "
          f"{params.block_size:3d} {params.blocks_per_parity:4d} "
          f"{params.hash_rounds:3d} {report.zeta:10.3e} "
          f"{report.i_ae:10.3e} {report.i_be:10.3e}")

print()
print("Detailed report for (eps1=1e-3, eps2=1e-3, N=64, ratio=0.5):")
print("-" * 64)
params, report = solve_parameters(1e-3, 1e-3, 64, 0.5)
print(report.to_text())

print("Sanity anchors:")
print(f"  guessing floor 2^-64           : {2.0 ** -64:.3e}")
print(f"  bound at the solved zeta       : {report.pr_eve_key:.3e}")
print(f"  I(A;B) (bits, of 64 possible)  : {report.i_ab:.6f}")
