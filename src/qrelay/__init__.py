"""qrelay: simulate and verify relay protocols that distribute an unknown
qubit across many parties and concentrate it back onto a single receiver
using only local measurements and classical messages."""

from .bell import BELL_OUTCOMES, BellOutcome, PauliLabel
from .channels import (
    ChannelSpec,
    ChannelValidationError,
    Endpoint,
    Variant,
    expand_mixture,
    ghz_channel,
    load_channel,
    mixed_channel,
    pure_channel,
    random_channel,
    resolve_preset,
    save_channel,
    smolin_channel,
    smolin_state,
    telecloning_channel,
)
from .protocol import (
    MAX_EXHAUSTIVE_PARTIES,
    InputQubit,
    OutcomeReport,
    concentration_correction,
    distribute,
    random_input,
    run_end_to_end,
)
from .statevec import CapacityError, trace_distance
from .verify import (
    Verdict,
    check_faithful,
    clone_fidelity_verdict,
    clone_report,
    domino_correction_by_counter,
    even_n_counterexample,
    oracle_agreement,
    run_suite,
    verify_smolin,
)

__version__ = "0.1.0"

__all__ = [
    "BELL_OUTCOMES",
    "MAX_EXHAUSTIVE_PARTIES",
    "BellOutcome",
    "CapacityError",
    "ChannelSpec",
    "ChannelValidationError",
    "Endpoint",
    "InputQubit",
    "OutcomeReport",
    "PauliLabel",
    "Variant",
    "Verdict",
    "check_faithful",
    "clone_fidelity_verdict",
    "clone_report",
    "concentration_correction",
    "distribute",
    "domino_correction_by_counter",
    "even_n_counterexample",
    "expand_mixture",
    "ghz_channel",
    "load_channel",
    "mixed_channel",
    "oracle_agreement",
    "pure_channel",
    "random_channel",
    "random_input",
    "resolve_preset",
    "run_end_to_end",
    "run_suite",
    "save_channel",
    "smolin_channel",
    "smolin_state",
    "telecloning_channel",
    "trace_distance",
    "verify_smolin",
]
