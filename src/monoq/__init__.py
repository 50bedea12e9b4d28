"""Numerical toolkit for Renyi-alpha entanglement monogamy and polygamy bounds.

Dense state/density-matrix utilities for up to 10 qubits, analytic two-qubit
entanglement measures with an independent decomposition-search oracle, the
ladder-weighted monogamy and polygamy inequalities with their ordering
hypotheses, and a seeded fuzzing harness that hunts for violations.
"""

from .core import (
    DensityMatrix,
    StateVector,
    haar_random_state,
    haar_random_unitary,
    hermitian_spectrum,
    load_state,
    partial_trace,
    pure_to_density,
    random_mixed_state,
    save_state,
    state_from_dict,
    state_to_dict,
)
from .errors import (
    ConfigError,
    DomainError,
    HermiticityError,
    InvalidSubsystemError,
    IoError,
    MonoqError,
    NormalizationError,
    ParameterError,
    PositivityError,
    PreconditionError,
    SizeError,
    UnsupportedStateClassError,
)
from .harness import (
    REFERENCE_ALPHA,
    CampaignConfig,
    CampaignResult,
    WitnessRecord,
    build_config,
    falpha_table,
    figure_csv,
    figure_rows,
    generalized_schmidt_state,
    reference_schmidt_state,
    replay_record,
    run_campaign,
    w_state,
)
from .measures import (
    ALPHA_WINDOW,
    AlphaMu,
    coa_search,
    coa_two_qubit,
    concurrence_pure,
    convex_roof_oracle,
    f_alpha,
    renyi_entanglement_pure,
    renyi_entanglement_two_qubit,
    renyi_entropy,
    wootters_concurrence,
)
from .monogamy import (
    FULL,
    BoundReport,
    OrderingProfile,
    ScalarCheck,
    ckw_check,
    detect_ordering,
    lemma1_check,
    scalar_weight_inequality,
    theorem_bound,
    weight_ladder,
)
from .polygamy import (
    coa_polygamy_check,
    reoa_cut,
    theorem3_bound,
)
from .wclass import (
    WClassState,
    build_wclass,
    random_wclass,
    wclass_from_state,
)

__version__ = "0.1.0"
