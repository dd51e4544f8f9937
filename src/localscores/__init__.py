"""Local proper scoring rules, composite local Bregman divergences, and
graph diagnostics for unnormalized models on discrete sample spaces."""

from .errors import (
    InputError,
    InternalConsistencyError,
    LocalScoresError,
    UnsupportedError,
)
from .spaces import (
    SampleSpace,
    hamming_distance,
    index_hamming_distance,
    index_to_signs,
    indices_to_signs,
    parse_space_spec,
    signs_matrix_to_indices,
    signs_to_index,
)
from .graphs import (
    BlockSystem,
    GraphDiagnostics,
    NeighborhoodGraph,
    VertexGraph,
    cl_connectivity_matches_cover,
    cl_neighborhood,
    components,
    covers,
    derived_graph_b,
    derived_graph_n,
    diagnose,
    extended_graph,
    graph_from_edges,
    hamming_graph,
    is_connected,
    label_band_graph,
    parse_blocks,
    read_edge_list,
    write_edge_list,
)
from .potentials import (
    BlockNeighborhood,
    HypercubeNeighborhood,
    LocalPotentialFamily,
    Probability,
    ScoreSpec,
    UnnormalizedVector,
    composite_likelihood,
    custom_additive,
    density_power,
    parse_score_spec,
    pseudo_likelihood,
    pseudo_spherical,
    ratio_matching,
)
from .scoring import (
    additive_score_term,
    cl_score,
    composite_potential,
    divergence,
    expected_score,
    generic_score,
    local_potential,
    local_potential_gradient,
    named_closed_form_score,
    rank_condition,
    score,
    score_and_logf_gradient,
    standard_cl_score,
    state_scores,
)
from .models import (
    BoltzmannModel,
    ConditionalModel,
    TabularModel,
    exact_log_z,
    grad_log_f,
    load_model,
    log_f,
    model_from_dict,
    model_to_dict,
    normalize,
    save_model,
)
from .sampling import (
    AisConfig,
    RngStream,
    ais_log_z,
    exact_sample,
    gibbs_sample,
    read_samples,
    write_samples,
)
from .estimation import (
    FitConfig,
    FitResult,
    NonFiniteObjectiveError,
    bind_spec,
    classify,
    classify_batch,
    empirical_score,
    fit,
    mle_fit,
    negative_log_loss,
    population_gradient,
    test_error,
)
from .oracle import (
    OracleReport,
    check_block_cover_connectivity,
    check_coincidence,
    check_divergence_identity,
    check_properness,
    check_score_paths,
    registered_counterexamples,
    standard_check_registry,
)

__version__ = "0.1.0"
