#!/usr/bin/env python3
"""Full key-distillation sessions: clean, noisy, and eavesdropped.

Runs the five-stage pipeline (transmit/sift, estimate, majority blocks,
parity bits, hash rounds) and shows what the transcript records, how noise
shows up in the disclosed sample, and how an intercept-resend attack is
caught.
"""

from relqkd import (ROUND_COLUMNS, EveStrategy, ProtocolConfig, Transcript, make_plateau,
                    replay_keys, run_session)


def summarize(tag, transcript):
    table = transcript.round_table
    sifted = int((table[:, ROUND_COLUMNS.index("b_outcome")] != 2).sum())
    disclosed = int(table[:, ROUND_COLUMNS.index("disclosed")].sum())
    print(f"--- {tag}")
    print(f"rounds={len(table)}  sifted={sifted}  "
          f"disclosed={disclosed}  p_err={transcript.p_err_estimate:.4f}")
    if transcript.aborted:
        print(f"ABORTED: {transcript.abort_reason}")
    else:
        key = "".join(str(b) for b in transcript.key_a)
        match = (transcript.key_a == transcript.key_b).all()
        print(f"key_a = {key}")
        print(f"keys identical: {bool(match)}")
        ka, kb = replay_keys(Transcript.from_text(transcript.to_text()))
        print(f"replay from the transcript text reproduces both keys: "
              f"{bool((ka == transcript.key_a).all() and (kb == transcript.key_b).all())}")
    print()


# One envelope, built once, serves every session below.
base = dict(key_length=16, block_size=3, blocks_per_parity=4, hash_rounds=8,
            disclose_fraction=0.15, envelope=make_plateau(1.0), channel_length=0.5)

summarize("noiseless, no eavesdropper",
          run_session(ProtocolConfig(**base, seed=101)))

summarize("flip noise 2%, loss 10%",
          run_session(ProtocolConfig(**base, seed=102,
                                     flip_probability=0.02,
                                     loss_probability=0.10)))

eve = EveStrategy(delay=0.25)
summarize("intercept-resend, delay chi = 0.25",
          run_session(ProtocolConfig(**base, seed=104, eve=eve)))

print("With the eavesdropper, no-fire rounds are resent as coin flips:")
print("the disclosed mismatch rate jumps to about (1 - f)/2 and the hash")
print("comparison aborts the session with overwhelming probability.")
