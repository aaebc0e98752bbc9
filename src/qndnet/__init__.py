"""Nondemolition Bell/GHZ measurement networks on a dense state-vector core,
correlation-operator spectra, and an entanglement-based authentication
simulator with attacker models and noise."""

from types import ModuleType as _ModuleType

from .auth import (
    AttackerModel,
    AuthAccount,
    NOISELESS,
    NoiseSpec,
    SessionResult,
    SweepRow,
    apply_noise,
    attacker_round_distribution,
    enroll,
    security_sweep,
    verify_session,
    wilson_interval,
)
from .bell import (
    BELL_DECODE_ORDER,
    BellLabel,
    BellQndOutcome,
    bell_bits,
    bell_branch_table,
    bell_network_unitary_steps,
    bell_premeasurement_state,
    bell_projection_oracle,
    bell_state,
    decode_bell,
    parse_bell_label,
    run_bell_qnd,
)
from .bell_operator import (
    BellOperatorSpec,
    CompatibilityReport,
    bell_operator_n,
    canonical_chsh_spec,
    canonical_spec,
    chsh_operator,
    direction_operator,
    hermiticity_residual,
    qnd_compatibility_check,
    spectral_radius,
)
from .ghz import (
    GhzLabel,
    GhzQndOutcome,
    all_canonical_labels,
    decode_ghz,
    ghz_bits,
    ghz_branch_table,
    ghz_network_gate_list,
    ghz_projection_oracle,
    ghz_state,
    hadamard_layer,
    parse_ghz_label,
    run_ghz_qnd,
)
from .statevector import (
    GateKind,
    GateOp,
    MAX_QUBITS,
    MeasurementResult,
    StateVector,
    append_ancillas,
    apply_dense_operator,
    apply_gate,
    apply_gates,
    apply_single_qubit_matrix,
    cnot,
    drop_qubit,
    fidelity_up_to_global_phase,
    from_dump,
    gates_to_matrix,
    hadamard,
    inner_product,
    load_dump,
    make_basis_state,
    measure_qubit,
    pauli_x,
    random_state,
    states_close,
    to_dump,
)

# submodules stay attributes of the package but are not exported names
__all__ = sorted(
    n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))
)
__version__ = "0.1.0"
