#!/usr/bin/env python3
"""Information quantities: accessible information, Holevo, Hartley.

The eavesdropper's restricted measurement induces a three-outcome channel
whose mutual information equals the available mass fraction f exactly, and
coincides with the Holevo quantity of the effective commuting ensemble.
The Hartley information of the parity-consistent string set approaches one
bit per raw bit, which is what makes the key-level bound exponential.
"""

from relqkd import eve_channel, holevo_quantity, mutual_information, parity_count
from relqkd.security import exact_eta

print("=" * 64)
print("Accessible information of the restricted measurement")
print("=" * 64)
print(f"{'f':>6} {'I(A;E) channel':>15} {'Holevo':>9} {'Pr(silent|0)':>13} {'Pr(silent|1)':>13}")
for f in (0.0, 0.25, 0.5, 0.6, 1.0):
    channel = eve_channel(f)
    mi = mutual_information(channel)
    chi = holevo_quantity([0.5, 0.5], [[f, 0.0, 1.0 - f], [0.0, f, 1.0 - f]])
    silent = channel.conditional[:, 2]
    print(f"{f:6.2f} {mi:15.9f} {chi:9.6f} {silent[0]:13.6f} {silent[1]:13.6f}")
print("A silent outcome is equally likely for both bits, so it carries nothing;")
print("firing outcomes carry the full bit, and I(A;E) = f.")

print()
print("=" * 64)
print("Parity-set counting and the Hartley ratio eta")
print("=" * 64)
print(f"{'n':>4} {'k':>3} {'exact count':>22} {'cosine form':>14} {'eta':>8}")
for n, k in [(3, 2), (5, 3), (10, 4), (20, 3), (45, 1)]:
    count = parity_count(n, k)
    eta = exact_eta(n, k)
    print(f"{n:4d} {k:3d} {count.exact:22d} {count.cosine:14.6g} {eta:8.5f}")
print("eta -> 1 with growing n*k: almost every raw bit must be known to")
print("pin one parity bit, so the eavesdropper's key probability collapses.")
