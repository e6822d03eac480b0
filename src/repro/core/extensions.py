"""Extensions beyond the paper: alternative path-selection policies.

The MLID *addressing* and *forwarding* schemes fix the meaning of every
LID, but which member of a destination's LIDset a source uses is host
policy — the paper picks "source rank in its sibling group" so that
all-to-one traffic from a group spreads perfectly.  That choice makes
the selected path depend only on the source (for prefix-disjoint
pairs), which serializes each source's whole stream onto one ascent.

These variants keep the published addressing and Equations (1)/(2)
untouched and change only the selection:

* :class:`HashedMlidScheme` (``"mlid-hash"``) — offset =
  hash(src, dst) mod paths.  Spreads by *pair*: simultaneously
  source-spread (hot-spot) and destination-spread (uniform).  This is
  what modern IB stacks effectively get from LMC path selection by
  hashing in the path-record query.
* :class:`DestStaggeredMlidScheme` (``"mlid-stagger"``) — offset =
  (rank(src) + rank-of-dst-within-its-level-1-group) mod paths.  A
  deterministic (hash-free) stagger that preserves the paper's
  all-to-one guarantee exactly: for a fixed destination it is the
  paper's rank selection rotated by a constant, so sibling sources
  still occupy pairwise-distinct least common ancestors, while a fixed
  source now spreads across destinations too.

Both override only ``dlid``.  The override guard in
:class:`~repro.core.scheme.RoutingScheme` therefore sets MLID's closed
form path selection aside for them, and every DLID matrix and block
they produce loops over their own ``dlid``.

Ablation A6 (``benchmarks/test_ablation_path_selection.py``) compares
all selection policies.
"""

from __future__ import annotations

from repro.core.forwarding import MlidScheme
from repro.core.path_selection import path_offset
from repro.core.scheme import register_scheme
from repro.topology import groups
from repro.topology.labels import NodeLabel, validate_node_label

__all__ = ["HashedMlidScheme", "DestStaggeredMlidScheme"]


def _paths(m: int, n: int, src: NodeLabel, dst: NodeLabel) -> int:
    alpha = groups.gcp_length(src, dst)
    if alpha >= n - 1:
        return 1
    return (m // 2) ** (n - 1 - alpha)


def _splitmix(x: int) -> int:
    """A small deterministic integer mixer (splitmix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class HashedMlidScheme(MlidScheme):
    """MLID with pair-hashed path selection."""

    name = "mlid-hash"

    def dlid(self, src: NodeLabel, dst: NodeLabel) -> int:
        m, n = self.ft.m, self.ft.n
        validate_node_label(m, n, src)
        validate_node_label(m, n, dst)
        if src == dst:
            raise ValueError(f"no path selection for src == dst == {src!r}")
        paths = _paths(m, n, src, dst)
        key = groups.pid(m, n, src) * self.ft.num_nodes + groups.pid(m, n, dst)
        return self.base_lid(dst) + _splitmix(key) % paths


class DestStaggeredMlidScheme(MlidScheme):
    """MLID with a destination-rank stagger on top of the paper's rank.

    ``offset = (rank(src) + rank(dst)) mod paths`` where both ranks are
    taken in the respective level-(α+1) sibling groups.  For a fixed
    destination this permutes the paper's assignment, preserving the
    distinct-LCA guarantee within every sending group.
    """

    name = "mlid-stagger"

    def dlid(self, src: NodeLabel, dst: NodeLabel) -> int:
        m, n = self.ft.m, self.ft.n
        base_offset = path_offset(m, n, src, dst)  # validates labels
        paths = _paths(m, n, src, dst)
        alpha = groups.gcp_length(src, dst)
        if alpha >= n - 1:
            stagger = 0
        else:
            stagger = groups.rank_in_gcpg(m, n, alpha + 1, dst) % paths
        return self.base_lid(dst) + (base_offset + stagger) % paths


register_scheme("mlid-hash", HashedMlidScheme)
register_scheme("mlid-stagger", DestStaggeredMlidScheme)
