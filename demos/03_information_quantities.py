#!/usr/bin/env python3
"""Information quantities: her measured information, and Hartley.

The eavesdropper's restricted measurement fires with probability f on the
bit that was sent and is otherwise silent, whatever the bit.  So for
uniform bits her information I(A;E) is f exactly, and in a session it is
her fired fraction.  The first table runs eavesdropped sessions and sets
the plug-in I(A;E) of each round table beside the f of the closed form.
The Hartley information of the parity-consistent string set approaches one
bit per raw bit, which is what makes the key-level bound exponential.
"""

import math

from relqkd import (EveStrategy, ProtocolConfig, channel_probabilities, make_plateau,
                    parity_count, run_session)
from relqkd.harness import eve_information
from relqkd.security import exact_eta, parity_cosine

envelope = make_plateau(1.0)
print("=" * 64)
print("Her information in a session (N=64, k=3, n=4, M=10, L_ch/L=0.5)")
print("=" * 64)
print(f"{'chi/L':>6} {'f(chi)':>8} {'rounds':>7} {'fired':>8} {'I(A;E)':>8} {'3 sigma':>8}")
for delay in (0.0, 0.1, 0.25, 0.4):
    eve = EveStrategy(delay)
    f, _ = channel_probabilities(envelope, 0.5, eve)
    table = run_session(ProtocolConfig(64, 3, 4, 10, 0.15, envelope, 0.5, 808,
                                       eve=eve)).round_table
    fired = (table[:, 2] < 2).mean()
    info = eve_information(table)
    print(f"{delay:6.2f} {f:8.4f} {len(table):7d} {fired:8.4f} {info:8.4f} "
          f"{3 * math.sqrt(f * (1 - f) / len(table)):8.4f}")
print("A silent outcome is equally likely for both bits, so it carries nothing;")
print("a firing one names the bit, and I(A;E) is her fired fraction, near f.")

print()
print("=" * 64)
print("Parity-set counting and the Hartley ratio eta")
print("=" * 64)
print(f"{'n':>4} {'k':>3} {'exact count':>22} {'cosine form':>14} {'eta':>8}")
for n, k in [(3, 2), (5, 3), (10, 4), (20, 3), (45, 1)]:
    eta = exact_eta(n, k)
    print(f"{n:4d} {k:3d} {parity_count(n, k):22d} {parity_cosine(n, k):14.6g} {eta:8.5f}")
print("eta -> 1 with growing n*k: almost every raw bit must be known to")
print("pin one parity bit, so the eavesdropper's key probability collapses.")
