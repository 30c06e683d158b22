"""Grassmann graphs, non-degenerate code graphs, and the exhaustive
classification of their embeddings, at desk scale over small prime fields."""

from .errors import Falsified, ParameterError
from .fqlinalg import (
    FieldSpec,
    Subspace,
    coordinate_hyperplane,
    enumerate_subspaces,
    gaussian_binomial,
    intersect,
    rref,
    subspace_sum,
)
from .grassmann import (
    KIND_FULL,
    KIND_NONDEGENERATE,
    CodeGraph,
    build_graph,
    connected_components,
    is_adjacent,
    is_nondegenerate,
)
from .cliques import CliqueClass, enumerate_maximal_cliques, star, star_criterion, top
from .hmap import (
    AbcPartition,
    SpecialFrame,
    abc_partition,
    complement_code,
    h_map,
    p_point,
    projective_morphism,
    special_frame,
    verify_h,
)
from .autgroup import (
    GraphAutomorphism,
    apply,
    code_graph_aut_group,
    grassmann_aut_group,
    orthocomplement,
)
from .verify import (
    EmbeddingMap,
    LemmaContext,
    build_context,
    certify_theorem,
    classify,
    enumerate_embeddings,
    lemma_chain,
    normalize,
    point_map,
)

__version__ = "0.1.0"
