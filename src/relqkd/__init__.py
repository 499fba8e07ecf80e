"""relqkd: relativistic quantum key distribution simulator and analyzer.

A causality-constrained one-dimensional QKD model: spatially extended
orthogonal photon envelopes, the eavesdropper's delay-versus-detection
tradeoff, the classical key-distillation pipeline, and the closed-form
security bounds -- with seeded Monte Carlo validation of all of it.
"""

from .adversary import (
    EveStrategy,
    ResendPolicy,
    apply_resend,
    bob_pass_bound,
    channel_probabilities,
    eve_success_probability,
    instrument_contraction_check,
    optimal_delay,
)
from .distill import (
    ROUND_COLUMNS,
    ProtocolConfig,
    Transcript,
    estimate_error,
    form_parity_bits,
    hash_rounds,
    majority_decode,
    replay_keys,
    run_session,
)
from .errors import (
    CausalityViolationError,
    InvalidParameterError,
    RelqkdError,
    ResourceExhaustedError,
)
from .harness import (
    CampaignSpec,
    cmd_analyze,
    cmd_distill,
    cmd_simulate,
    cmd_verify,
    load_campaign,
    simulate_intercept_resend,
)
from .measurement import (
    BobOutcome,
    EveOutcome,
    PhotonState,
    bob_outcome_distribution,
    eve_outcome_distribution,
)
from .security import (
    SecurityReport,
    build_report,
    parity_count,
    solve_parameters,
)
from .wavepacket import (
    AmplitudeProfile,
    Interval,
    Plateau,
    make_plateau,
    mass_in_interval,
    overlap,
)

__version__ = "0.1.0"
