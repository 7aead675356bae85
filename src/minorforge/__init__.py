"""minorforge: constructive graph-minor extraction with certificates.

Everything here computes witnesses, not just verdicts: minor models as
explicit branch sets, path families with endpoint contracts, separations
with both sides, and exact-rational density checks throughout.
"""

from .build import (
    HittingSetResult,
    bipartite_random_contraction,
    build_dense_minor,
    build_dense_minor_bipartite,
    build_dense_minor_in_dense_graph,
    connect_within,
    hitting_set_check,
    sample_hitting_set,
)
from .coloring import (
    chromatic_number_exact,
    is_chromatic_separable,
)
from .connectivity import vertex_connectivity, vertex_connectivity_with_cutset
from .flow import pair_vertex_cut
from .errors import (
    AttemptsExhaustedError,
    DensityNotMetError,
    DisconnectedHostError,
    ExtractionFailedError,
    HypothesisViolatedError,
    InternalInfeasibleError,
    InvalidBipartitionError,
    InvalidModelError,
    LinkageFailedError,
    MinorforgeError,
    NeighborsUnavailableError,
    NotAnEdgeError,
    OrderTooSmallError,
    ParseError,
    PathTooLongError,
    TooLargeError,
    UnknownVertexError,
)
from .extract import (
    dense_connected_minor,
    k_connected_subgraph,
    mader_min_degree_minor,
)
from .graph import (
    Graph,
    average_degree,
    complement_max_degree,
    complete_graph,
    edge_density,
    graph_from_edge_list,
    greedy_dense_subgraph,
    induced_subgraph,
    is_eps_t_dense,
    mask_of,
    random_bipartite,
    random_graph,
)
from .graphio import (
    parse_fraction,
    parse_graph,
    parse_model,
    serialize_graph,
    serialize_model,
    to_dot,
)
from .model import (
    MinorModel,
    ModelReport,
    compose_models,
    is_attached_to,
    is_rooted_at,
    require_valid,
    validate_model,
)
from .params import (
    degree_target,
    power_hypothesis,
    undominated_bound,
)
from .paths import (
    PathFamily,
    Separation,
    audit_path_family,
    find_linkage,
    knit_connect,
    menger,
    require_paths,
)
from .rng import Rng, derive_seed
from .rooted import (
    attached_model_search,
    find_separation_avoiding,
    rooted_from_minor,
)
from .woven import (
    WovenReport,
    WovenTriple,
    check_wovenness,
    realize_woven_from_dense_minor,
)

__version__ = "0.1.0"
