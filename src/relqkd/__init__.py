"""relqkd: relativistic quantum key distribution simulator and analyzer.

A causality-constrained one-dimensional QKD model: spatially extended
orthogonal photon envelopes, the eavesdropper's delay-versus-detection
tradeoff, the classical key-distillation pipeline, and the closed-form
security bounds -- with seeded Monte Carlo validation of all of it.

The names below, with ``relqkd.cli.main``, are the package's boundary: any
bad input to them raises a typed ``RelqkdError``.  Interior functions,
imported from their modules, trust their callers.
"""

from .adversary import EveStrategy, ResendPolicy, channel_probabilities
from .distill import ProtocolConfig, Transcript, run_session
from .errors import (
    CausalityViolationError,
    InvalidParameterError,
    RelqkdError,
    ResourceExhaustedError,
)
from .harness import load_campaign
from .security import SecurityReport, build_report, solve_parameters
from .wavepacket import Plateau, make_plateau

__version__ = "0.1.0"
