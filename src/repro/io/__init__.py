"""Input/output: edge-list files, JSON (de)serialisation, on-disk shard stores.

A shard store (:func:`save_sharded`, :func:`load_sharded`) holds each time
shard's block-diagonal operator stacks as flat files that reopen
memory-mapped, without a copy; see :mod:`repro.io.mmap_store`.
"""

from repro.io.edge_list_io import (
    parse_temporal_edge_lines,
    read_temporal_edge_list,
    write_temporal_edge_list,
)
from repro.io.mmap_store import STORE_FORMAT, load_sharded, save_sharded
from repro.io.serialization import (
    bfs_result_to_dict,
    evolving_graph_from_dict,
    evolving_graph_to_dict,
    load_evolving_graph,
    save_evolving_graph,
)

__all__ = [
    "read_temporal_edge_list",
    "write_temporal_edge_list",
    "parse_temporal_edge_lines",
    "evolving_graph_to_dict",
    "evolving_graph_from_dict",
    "save_evolving_graph",
    "load_evolving_graph",
    "bfs_result_to_dict",
    "STORE_FORMAT",
    "save_sharded",
    "load_sharded",
]
