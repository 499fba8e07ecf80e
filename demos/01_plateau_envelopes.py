#!/usr/bin/env python3
"""Plateau envelopes: normalization, window mass, and the delay test.

Builds the extended photon envelopes the protocol rides on, shows how the
tail-mass knob trades against the ramp geometry, and demonstrates that a
delayed substitute cannot pass the receiver's projection test with
probability above 1 - chi/L.  ``make_plateau`` returns the envelope in
closed form: every mass below is an integral of its carrier, taken as a
sum of cosine antiderivatives over the interval asked for.
"""

from relqkd import EveStrategy, ResendPolicy, channel_probabilities, make_plateau


def mass(envelope, lo, hi):
    """Mass of the unit-mass envelope over [lo, hi], window [0, L]."""
    L = envelope.plateau_length
    # The carrier integrals place the window at [-L, 0].
    return envelope.carrier_mass(lo - L, hi - L) / envelope.norm


print("=" * 64)
print("Ideal flat envelope, extent L = 1")
print("=" * 64)
p = make_plateau(1.0)
print(f"flat value          : {p.flat_value:.12f}  (1/sqrt(L) = 1)")
print(f"total mass          : {mass(p, p.support.lo, p.support.hi):.12f}")
print(f"plateau-window mass : {mass(p, 0.0, 1.0):.12f}")
print(f"left-half mass      : {mass(p, 0.0, 0.5):.12f}")

print()
print("=" * 64)
print("Ramped envelope: requested tail mass 0.01, ramp fraction 0.02")
print("=" * 64)
q = make_plateau(1.0, tail_mass=0.01, ramp_fraction=0.02)
print(f"ramp overhang       : {q.overhang:.10f} of ramp width {q.ramp_width:.4f}")
print(f"achieved tail mass  : {q.tail_mass:.10f}")
print(f"plateau-window mass : {mass(q, 0.0, 1.0):.10f}  (= 1 - tail)")
print(f"support             : [{q.support.lo:+.5f}, {q.support.hi:+.5f}]")
print(f"flat value          : {q.flat_value:.10f}")
print("The flat top sits slightly below 1/sqrt(L): unit norm plus window")
print("mass 1 - tail pin it there; the deficit is of order the tail mass.")

print()
print("=" * 64)
print("Delay test: pass probability of a resend delayed by chi vs 1 - chi/L")
print("=" * 64)
print(f"{'chi/L':>8} {'truncated':>12} {'shifted':>12} {'bound':>8}")
for chi in (0.0, 0.1, 0.25, 0.5, 0.75):
    _, truncated = channel_probabilities(p, 0.0, EveStrategy(chi))
    _, shifted = channel_probabilities(p, 0.0, EveStrategy(chi, ResendPolicy.SHIFTED_COPY))
    print(f"{chi:8.2f} {truncated:12.6f} {shifted:12.6f} {1.0 - chi:8.4f}")
print("The truncated-renormalized substitute saturates the bound exactly;")
print("a copy shifted whole passes only (1 - chi/L)^2.")
