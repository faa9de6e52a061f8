"""Higher-level temporal-graph algorithms built on the core BFS.

* :mod:`~repro.algorithms.reachability` — forward/backward influence sets.
* :mod:`~repro.algorithms.components` — weak & strong temporal components.
* :mod:`~repro.algorithms.temporal_paths` — earliest-arrival, fewest-spatial-hops,
  latest-departure path notions.
* :mod:`~repro.algorithms.centrality` — reach, closeness, betweenness, Katz.
* :mod:`~repro.algorithms.dynamic_walks` — Grindrod–Higham communicability
  baseline (sparse resolvent/walk engine behind ``backend="vectorized"``).
* :mod:`~repro.algorithms.tang_distance` — Tang et al. temporal-distance baseline.
* :mod:`~repro.algorithms.pagerank` — snapshot / evolving / aggregate PageRank.
* :mod:`~repro.algorithms.influence` — Section V citation-network mining.
* :mod:`~repro.algorithms.queries` — frozen query descriptors for the
  serving layer (:mod:`repro.serving`).
"""

from repro.algorithms.centrality import (
    temporal_betweenness_sampled,
    temporal_closeness,
    temporal_in_reach,
    temporal_katz,
    temporal_out_reach,
)
from repro.algorithms.components import (
    component_of,
    num_weak_components,
    strong_temporal_components,
    weak_temporal_components,
)
from repro.algorithms.dynamic_walks import (
    broadcast_centrality,
    communicability_matrix,
    count_dynamic_walks,
    receive_centrality,
)
from repro.algorithms.incremental import IncrementalBFS, IncrementalEarliestArrival
from repro.algorithms.influence import (
    community_of,
    influence_set,
    influence_tree_leaves,
    influencer_set,
    top_influencers,
)
from repro.algorithms.pagerank import (
    aggregate_pagerank,
    evolving_pagerank,
    snapshot_pagerank,
)
from repro.algorithms.reachability import (
    backward_influence_set,
    earliest_influence_time,
    forward_influence_set,
    influence_node_identities,
    influence_sizes,
    influenced_by,
)
from repro.algorithms.tang_distance import (
    average_temporal_distance,
    temporal_distance_tang,
    temporal_distances_tang_from,
    temporal_efficiency,
)
from repro.algorithms.queries import (
    BFSQuery,
    BroadcastCentralityQuery,
    EarliestArrivalQuery,
    FewestHopsQuery,
    LatestDepartureQuery,
    Query,
    ReachabilityQuery,
    ReceiveCentralityQuery,
    TangDistanceQuery,
    TopKReachQuery,
)
from repro.algorithms.temporal_paths import (
    earliest_arrival_time,
    earliest_arrival_times,
    fewest_spatial_hops,
    fewest_spatial_hops_from,
    latest_departure_time,
    latest_departure_times,
)

__all__ = [
    # reachability / influence sets
    "forward_influence_set",
    "backward_influence_set",
    "influence_node_identities",
    "influenced_by",
    "earliest_influence_time",
    "influence_sizes",
    # components
    "weak_temporal_components",
    "strong_temporal_components",
    "num_weak_components",
    "component_of",
    # path notions
    "earliest_arrival_time",
    "earliest_arrival_times",
    "fewest_spatial_hops",
    "fewest_spatial_hops_from",
    "latest_departure_time",
    "latest_departure_times",
    # centrality
    "temporal_out_reach",
    "temporal_in_reach",
    "temporal_closeness",
    "temporal_betweenness_sampled",
    "temporal_katz",
    # baselines
    "communicability_matrix",
    "broadcast_centrality",
    "receive_centrality",
    "count_dynamic_walks",
    "temporal_distance_tang",
    "temporal_distances_tang_from",
    "average_temporal_distance",
    "temporal_efficiency",
    "snapshot_pagerank",
    "evolving_pagerank",
    "aggregate_pagerank",
    # incremental maintenance
    "IncrementalBFS",
    "IncrementalEarliestArrival",
    # Section V citation mining
    "influence_set",
    "influencer_set",
    "influence_tree_leaves",
    "community_of",
    "top_influencers",
    # serving-layer query descriptors
    "Query",
    "BFSQuery",
    "ReachabilityQuery",
    "EarliestArrivalQuery",
    "LatestDepartureQuery",
    "FewestHopsQuery",
    "TangDistanceQuery",
    "TopKReachQuery",
    "BroadcastCentralityQuery",
    "ReceiveCentralityQuery",
]
