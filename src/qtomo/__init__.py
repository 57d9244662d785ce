"""Single-qubit state tomography through a two-player game protocol.

Exact payoff readout and finite-shot Monte Carlo estimation of the Stokes
parameters run on the product form: each step's outcome distribution is the
ancilla's times the unknown qubit's, so the hot path never builds a 4x4
state. The appended two-qubit state, its evolution under the strategy
unitaries and the closed-form payoffs in `game` are the paper's derivation
and the test oracle. Reconstruction projects onto the Bloch ball, scores
use Bloch-vector closed forms, and `qtomo` is the command line.
"""

from .game import (
    ClosedFormCoefficients,
    GameRun,
    PayoffMatrix,
    Strategy,
    closed_form_coefficients,
    evolve,
    initial_state,
    payoff_closed_form,
    payoff_exact,
    payoff_operator,
    strategy_unitary,
)
from .linalg import (
    DEFAULT_TOL,
    cmatrix,
    is_density,
    is_hermitian,
    is_unitary,
    kron,
    max_abs,
)
from .states import (
    PAULIS,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
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
    measurement_distribution,
    protocol_steps,
    reconstruct,
    run_tomography,
    sample_payoff,
    step_payoffs,
)

__version__ = "0.1.0"

__all__ = [
    "ALICE_PAYOFF",
    "BOB_PAYOFF",
    "ClosedFormCoefficients",
    "DEFAULT_TOL",
    "GameRun",
    "PAULIS",
    "PayoffMatrix",
    "ProtocolStep",
    "PureQubit",
    "SIGMA0",
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "SampleEstimate",
    "StepPayoffs",
    "StokesVector",
    "Strategy",
    "TomographyResult",
    "closed_form_coefficients",
    "cmatrix",
    "density_from_stokes",
    "derive_seed",
    "estimate_stokes",
    "evolve",
    "exact_stokes",
    "fidelity",
    "initial_state",
    "is_density",
    "is_hermitian",
    "is_unitary",
    "kron",
    "max_abs",
    "measurement_distribution",
    "payoff_closed_form",
    "payoff_exact",
    "payoff_operator",
    "protocol_steps",
    "pure_density",
    "reconstruct",
    "run_tomography",
    "sample_payoff",
    "step_payoffs",
    "stokes_of",
    "strategy_unitary",
    "trace_distance",
]
