"""Leaderless multidimensional Byzantine agreement, simulated.

A library and harness for reaching consensus on a vector of observed values
over a complete synchronous network: a two-step multidimensional graded
consensus (MGC), an iterated multidimensional binary agreement with a
shared-coin step (MBBA), their composition (MBA), a deterministic round
simulator with pluggable Byzantine strategies, and an analysis layer that
checks empirical halting times against the closed-form step-count bound.
"""

from .core import (
    BOT,
    BitTally,
    GradedPair,
    MessageEnvelope,
    Phase,
    StepId,
    Tally,
    ingest,
)
from .crypto import KeyPair, KeyRegistry, common_string, derive_coin, digest
from .mba import TrialRecord, resolve_output, run_trial
from .mbba import MbbaState, grades_to_bits
from .mgc import MgcState
from .netsim import Adversary, AdversaryView, NetworkConfig, SyncNetwork
from .adversaries import STRATEGIES, make_adversary
from .analysis import (
    EmpiricalHistogram,
    bound_check,
    coin_game_ccdf,
    coin_game_pmf,
)

__version__ = "0.1.0"

__all__ = [
    "BOT",
    "Adversary",
    "AdversaryView",
    "BitTally",
    "EmpiricalHistogram",
    "GradedPair",
    "KeyPair",
    "KeyRegistry",
    "MbbaState",
    "MessageEnvelope",
    "MgcState",
    "NetworkConfig",
    "Phase",
    "STRATEGIES",
    "StepId",
    "SyncNetwork",
    "Tally",
    "TrialRecord",
    "bound_check",
    "coin_game_ccdf",
    "coin_game_pmf",
    "common_string",
    "derive_coin",
    "digest",
    "grades_to_bits",
    "ingest",
    "make_adversary",
    "resolve_output",
    "run_trial",
]
