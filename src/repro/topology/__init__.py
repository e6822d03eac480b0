"""m-port n-tree fat-tree topology substrate.

Implements Section 3 of the paper: the :class:`FatTree` construction
``FT(m, n)`` from fixed-arity m-port switches, the label algebra for
processing nodes and switches, and the structural definitions
(Definitions 1-4) the MLID routing scheme is built on: greatest common
prefix, least common ancestors, greatest-common-prefix groups, ranks
and PIDs.
"""

from repro.topology.labels import (
    NodeLabel,
    SwitchLabel,
    node_labels,
    switch_labels,
    validate_node_label,
    validate_switch_label,
)
from repro.topology.fattree import FatTree, PortRef, Endpoint
from repro.topology.groups import (
    gcp,
    gcp_length,
    lca,
    gcpg,
    gcpg_size,
    rank_in_gcpg,
    pid,
    node_from_pid,
)
from repro.topology.graph import to_networkx, bisection_links, diameter_hops

__all__ = [
    "NodeLabel",
    "SwitchLabel",
    "node_labels",
    "switch_labels",
    "validate_node_label",
    "validate_switch_label",
    "FatTree",
    "PortRef",
    "Endpoint",
    "gcp",
    "gcp_length",
    "lca",
    "gcpg",
    "gcpg_size",
    "rank_in_gcpg",
    "pid",
    "node_from_pid",
    "to_networkx",
    "bisection_links",
    "diameter_hops",
]
