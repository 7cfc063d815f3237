"""Stable states and characters of the infinite symmetric group, truncated."""

from .permutations import (
    IDENTITY,
    Permutation,
    adjacent_word,
    conjugate,
    cycle,
    split_product,
    symmetric_group,
    transposition,
)
from .partitions import (
    conjugate_partition,
    hook_dimension,
    partitions_of,
    standard_tableaux,
)
from .characters import (
    centralizer_order,
    character_table,
    character_value,
    class_representative,
    class_size,
    mn_character,
    normalized_character,
)
from .yor import irrep_dimension, irrep_matrix, irrep_table, yor_generators
from .fourier import (
    FourierBlocks,
    PsdCertificate,
    StateFunction,
    dual_norm,
    fourier,
    gram_matrix,
    inverse_fourier,
    is_positive_definite,
    restricted_distance,
)
from .thoma import (
    FactorType,
    RecoveryResult,
    ThomaParams,
    power_sum,
    recover_params,
    thoma_character,
    type_classify,
)
from .canonical import (
    AsymptoticResult,
    CanonicalState,
    ClassInvariant,
    ClassificationError,
    ClassificationResult,
    ShiftSequence,
    asymptotic_character,
    central_depth,
    classify,
    quasi_equivalent,
    recover_lambda,
    shift_sequence,
)
from .stability import (
    StabilityProfile,
    ad_orbit_state,
    centrality_defect,
    probe_generators,
    rho_distance,
    stability_profile,
)
from .gns import (
    BiregularRep,
    GnsTriple,
    StandardForm,
    biregular,
    central_support,
    commutant,
    double_commutant,
    gns,
    gns_standard_pipeline,
    standard_form,
    subspace_distance,
    support_projection,
)
from .induction import character_inner, decompose_induced, induced_character

__version__ = "0.1.0"
