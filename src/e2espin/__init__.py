"""Spin entanglement observables for nonrelativistic (e,2e) ionization.

Computes concurrence, entanglement of formation, CHSH/Bell quantities
and spin-resolved triple differential cross sections for the electron
pair leaving an ionizing collision, with plane-wave Born and 3C (BBK)
amplitude models for atomic hydrogen.  Atomic units throughout.
"""

from .amplitudes import (
    McConfig,
    free_limit_closed_form,
    pwba_amplitudes,
)
from .bell import (
    DEFAULT_SETTINGS,
    RATIO_BOUND,
    TSIRELSON_BOUND,
    DetectorSettings,
    chsh_closed_form,
    chsh_expectation,
    chsh_operator,
)
from .bellsim import (
    CoincidenceCounts,
    chsh_estimate,
    outcome_probabilities,
    sample_coincidences,
    simulate_chsh,
)
from .c3mc import PairEstimate, c3_pair
from .entanglement import (
    concurrence_closed_form,
    concurrence_wootters,
    entanglement_of_formation,
    linear_entropy,
    von_neumann_entropy,
)
from .kinematics import (
    HARTREE_EV,
    Kinematics,
    KinematicsError,
    build_coplanar,
    tdcs_polarized,
    tdcs_prefactor,
)
from .scan import (
    ConfigError,
    ScanConfig,
    parse_config,
    resolve_polarizations,
    run_scan,
    write_csv,
    write_pgm,
)
from .special import Coulomb1F1Table, ConvergenceError, coulomb_norm, kummer_1f1, ln_gamma
from .spin import (
    BELL_TO_PRODUCT,
    PAULI,
    AmplitudePair,
    DegenerateStateError,
    bloch_spinor,
    pair_matrix,
    pair_state,
    reduced_density,
    rho_bell_closed_form,
    rho_mixed,
    rho_pure,
    spinor_from_polarization,
    to_bell_basis,
)

__version__ = "0.1.0"
