"""Single-qubit state tomography through a two-player game protocol.

Exact readout and finite-shot estimation of the Stokes parameters run through
one 3x4 instrument matrix A, read in closed form from Bob's strategies: each
step pays Alice +1 with probability A (1, s1, s2, s3), so the hot path never
builds a 4x4 state. Reconstruction projects onto the Bloch ball, scores use
Bloch-vector closed forms, and `qtomo` is the command line.

The package exports the pipeline: states, protocol, sampling, reconstruction
and scores. The paper's derivation, which is the tests' oracle (the appended
two-qubit state, its evolution under the strategy unitaries and the
closed-form payoffs), stays in `qtomo.game`; the matrix helpers and Pauli
constants stay in `qtomo.linalg` and `qtomo.states`.
"""

from .game import PayoffMatrix, Strategy
from .states import (
    PureQubit,
    StokesVector,
    density_from_stokes,
    fidelity,
    pure_density,
    stokes_of,
    trace_distance,
)
from .tomography import (
    ALICE_PAYOFF,
    BOB_PAYOFF,
    ProtocolStep,
    SampleEstimate,
    StepPayoffs,
    TomographyResult,
    derive_seed,
    estimate_stokes,
    exact_stokes,
    protocol_steps,
    reconstruct,
    run_tomography,
    step_payoffs,
)

__version__ = "0.1.0"

__all__ = [
    # states
    "PureQubit", "StokesVector", "pure_density", "stokes_of", "density_from_stokes",
    # protocol
    "Strategy", "PayoffMatrix", "ProtocolStep", "ALICE_PAYOFF", "BOB_PAYOFF", "protocol_steps",
    "StepPayoffs", "step_payoffs", "exact_stokes",
    # sampling
    "SampleEstimate", "estimate_stokes", "derive_seed",
    # reconstruction and scores
    "TomographyResult", "reconstruct", "run_tomography", "fidelity", "trace_distance",
]
