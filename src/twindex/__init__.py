"""Twin-class graph decomposition and fast Wiener / m-Steiner Wiener indices.

The package decomposes a finite simple graph into twin classes, reconstructs
it as a generalized composition over the reduced graph of representatives,
and evaluates the Wiener and m-Steiner Wiener indices either from the
definition (one exact Steiner query per subset) or through the much cheaper
twin-class reduction. Generators cover power graphs of finite groups and
zero-divisor / ideal-based zero-divisor / comaximal ideal graphs of finite
commutative rings.
"""

from .errors import (
    ArityMismatch,
    BadParameter,
    BadSubsetSize,
    DisconnectedGraph,
    DisconnectedTerminals,
    EmptyTerminalSet,
    GraphTooLargeForBruteForce,
    ImproperIdeal,
    LocalRingUnsupported,
    NeedTwoParts,
    OrderTooLarge,
    ParseError,
    ReconstructionMismatch,
    RingMismatch,
    RingTooLarge,
    RouteDisagreement,
    SelfLoopRejected,
    TerminalCapExceeded,
    TwindexError,
    VertexOutOfRange,
)
from .graph import (
    Graph,
    generalized_composition,
    induced_subgraph,
    is_connected,
    new_graph,
    parse_graph,
    render_graph,
)
from .twins import ClassKind, TwinDecomposition, are_twins, recompose, twin_partition
from .steiner import (
    distance_matrix,
    steiner_distance,
    steiner_distance_bruteforce,
    steiner_wiener_naive,
    wiener_index,
)
from .reduced import (
    steiner_wiener_reduced,
    steiner_wiener_reduced_with_stats,
    sw_complete_multipartite,
    sw_completely_joined_bound,
)
from .algebra import (
    FiniteGroup,
    FiniteRing,
    Ideal,
    all_ideals,
    cyclic_group,
    dihedral_group,
    elementary_abelian_2,
    group_from_spec,
    group_product,
    ideal_from_spec,
    ideal_generated,
    maximal_ideals,
    poly_quotient_ring,
    quaternion_group,
    ring_from_spec,
    ring_product,
    zmod,
)
from .generators import (
    comaximal_ideal_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    empty_graph,
    ideal_zero_divisor_graph,
    path_graph,
    power_graph,
    star_graph,
    wheel_graph,
    zero_divisor_graph,
)

__version__ = "0.1.0"
