"""Continuous-variable port-based teleportation channels in a truncated Fock basis."""

__version__ = "0.1.0"

from .fock import (
    Cutoff,
    DensityOperator,
    FockOperator,
    FockVector,
    adaptive_cutoff,
    chi,
    coherent_cutoff,
    coherent_ket,
    fidelity,
    mean_photon_number,
    thermal_state,
    tmsv_ket,
    trace_norm,
)
from .two_port import (
    ChannelParams,
    Regime,
    apply_coherent,
    apply_number_element,
    max_output_energy,
    omega,
    output_energy,
    regime,
)
from .bounds import (
    EdrcParams,
    edrc_apply,
    edrc_diamond_norm,
    lossy_apply,
    lossy_diamond_bound_negative,
    lossy_diamond_bound_positive,
    resource_fidelity,
    sim_example_bound,
)
from .nport import (
    NPortChannel,
    ThreePortChannel,
    apply_state_nport,
    enumerate_multisets,
    eta_basis,
    gamma,
    input_output_fidelity,
    sector_matrix,
)
from .oracle import (
    TruncatedProtocol,
    brute_channel_element,
    build_povm_element,
    build_rho,
    build_sigma,
    reduced_resource,
    verification_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
