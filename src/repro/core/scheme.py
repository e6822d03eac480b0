"""Common interface for routing schemes on IBFT(m, n).

A :class:`RoutingScheme` bundles everything the Subnet Manager needs to
program a subnet and everything an endnode needs to address packets:

* the LID plan (how many LIDs per node, who owns which LID),
* the DLID a source uses for a destination (path selection), and
* the forwarding decision ``output_port(switch, lid)`` from which the
  per-switch linear forwarding tables are built.

A scheme writes each rule once as a scalar method (``dlid``,
``output_port``) and, where it has one, once as a closed form over
arrays (``_dlid_rows``, ``_output_port_batch``).  Every other form is
derived here and overridden nowhere: ``dlid_rows`` and
``dlid_matrix`` from path selection, ``output_port_batch``,
``port_matrix`` and ``build_tables`` from forwarding.  One override
guard (:meth:`RoutingScheme._vectorized`) decides between the closed
form and the scalar loop, so a subclass that overrides a scalar rule
is routed, programmed, repaired and simulated with its override by
every consumer alike.

Port numbers returned by ``output_port`` are the paper's 0-based ``k``;
the IB layer shifts to physical ``k + 1``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List

import numpy as np

from repro.topology.fattree import FatTree
from repro.topology.labels import NodeLabel, SwitchLabel

__all__ = ["RoutingScheme", "register_scheme", "get_scheme", "available_schemes"]

#: (switch, LID) pairs per :meth:`RoutingScheme.output_port_batch` call
#: while :meth:`RoutingScheme.port_matrix` fills the tables.
_TABLE_BATCH = 1 << 14


class RoutingScheme(ABC):
    """Abstract routing scheme over a constructed :class:`FatTree`."""

    #: short identifier used in registries, configs and reports
    name: str = "abstract"

    def __init__(self, ft: FatTree):
        self.ft = ft

    # -- LID plan ------------------------------------------------------
    @property
    @abstractmethod
    def lmc(self) -> int:
        """LMC value assigned to every endport."""

    @property
    def lids_per_node(self) -> int:
        return 1 << self.lmc

    @property
    def num_lids(self) -> int:
        """Highest assigned LID (LIDs are 1 … num_lids, dense)."""
        return self.ft.num_nodes * self.lids_per_node

    @abstractmethod
    def base_lid(self, node: NodeLabel) -> int:
        """First LID of a node's LIDset."""

    def lid_set(self, node: NodeLabel) -> range:
        base = self.base_lid(node)
        return range(base, base + self.lids_per_node)

    def owner_pid(self, lid: int) -> int:
        """PID of the node owning ``lid``."""
        if not 1 <= lid <= self.num_lids:
            raise ValueError(f"LID must be in [1, {self.num_lids}], got {lid}")
        return (lid - 1) >> self.lmc

    def owner(self, lid: int) -> NodeLabel:
        """Label of the node owning ``lid``."""
        return self.ft.node_from_pid(self.owner_pid(lid))

    # -- path selection ------------------------------------------------
    @abstractmethod
    def dlid(self, src: NodeLabel, dst: NodeLabel) -> int:
        """The DLID ``src`` writes into packets for ``dst``."""

    def dlid_rows(self, src_ids: np.ndarray) -> np.ndarray:
        """Path selection for a block of sources at once.

        Returns the ``(len(src_ids), num_nodes)`` DLID block: row ``i``
        holds the DLIDs source ``src_ids[i]`` uses for every
        destination, 0 where ``src == dst``.  Runs the scheme's
        closed form ``_dlid_rows`` when :meth:`_vectorized` allows it,
        so large fabrics can be processed in source chunks without the
        full N×N matrix (the flow model's compile on FT(32, 3)), and
        otherwise loops over :meth:`dlid`.
        """
        src_ids = np.asarray(src_ids, dtype=np.int64)
        closed_form = self._vectorized("_dlid_rows", "dlid")
        if closed_form is not None:
            return closed_form(src_ids)
        nodes = self.ft.nodes
        out = np.zeros((len(src_ids), len(nodes)), dtype=np.int64)
        for i, s in enumerate(src_ids.tolist()):
            src = nodes[s]
            for d, dst in enumerate(nodes):
                if s != d:
                    out[i, d] = self.dlid(src, dst)
        return out

    def dlid_matrix(self) -> np.ndarray:
        """Dense (num_nodes x num_nodes) DLID table, 0 on the diagonal:
        :meth:`dlid_rows` over every source."""
        return self.dlid_rows(np.arange(self.ft.num_nodes, dtype=np.int64))

    # -- forwarding ----------------------------------------------------
    @abstractmethod
    def output_port(self, switch: SwitchLabel, lid: int) -> int:
        """0-based output port ``k`` for DLID ``lid`` at ``switch``."""

    def output_port_batch(
        self, switch_ids: np.ndarray, lids: np.ndarray
    ) -> np.ndarray:
        """Forwarding decisions for arbitrary (switch, DLID) pairs.

        ``switch_ids`` indexes :attr:`ft`'s ``switches`` list; ``lids``
        holds matching 1-based DLIDs.  Returns the 0-based output port
        per pair.  Runs the scheme's closed form ``_output_port_batch``
        when :meth:`_vectorized` allows it, so the flow model can
        hop-step millions of routes without any forwarding table, and
        otherwise loops over :meth:`output_port`.
        """
        closed_form = self._vectorized("_output_port_batch", "output_port")
        if closed_form is not None:
            return closed_form(
                np.asarray(switch_ids, dtype=np.int64),
                np.asarray(lids, dtype=np.int64),
            )
        switches = self.ft.switches
        return np.array(
            [
                self.output_port(switches[s], lid)
                for s, lid in zip(
                    np.asarray(switch_ids).tolist(), np.asarray(lids).tolist()
                )
            ],
            dtype=np.int64,
        )

    def port_matrix(self) -> np.ndarray:
        """Every switch's forwarding table as one int64 array:
        ``port_matrix()[i, lid - 1]`` is the 0-based output port of
        ``ft.switches[i]``, from :meth:`output_port_batch` over the
        whole (switch, LID) grid, a few rows per batch."""
        num_switches, num_lids = self.ft.num_switches, self.num_lids
        lids = np.arange(1, num_lids + 1, dtype=np.int64)
        out = np.empty((num_switches, num_lids), dtype=np.int64)
        rows = max(1, _TABLE_BATCH // num_lids)
        for lo in range(0, num_switches, rows):
            ids = np.arange(lo, min(lo + rows, num_switches), dtype=np.int64)
            out[lo : lo + len(ids)] = self.output_port_batch(
                np.repeat(ids, num_lids), np.tile(lids, len(ids))
            ).reshape(len(ids), num_lids)
        return out

    def build_tables(self) -> Dict[SwitchLabel, List[int]]:
        """Materialize every switch's linear forwarding table.

        ``tables[switch][lid - 1]`` is the 0-based output port: the
        rows of :meth:`port_matrix` as fresh lists, which callers may
        mutate (the fault-repair oracle does).
        """
        return dict(zip(self.ft.switches, self.port_matrix().tolist()))

    # -- override guard ------------------------------------------------
    def _vectorized(self, fast: str, scalar: str):
        """The bound closed form ``fast``, or None when it would bypass
        an override of its scalar form ``scalar``.

        A closed form counts only when it is defined at or below the
        class defining the scalar form in the MRO: a subclass that
        overrides only ``output_port`` or ``dlid`` (a corrupted-entry
        test double, the hashed and staggered MLID selections) must not
        vanish under a closed form its parent wrote for the inherited
        rule.  Every derived form (:meth:`dlid_rows`,
        :meth:`dlid_matrix`, :meth:`output_port_batch`,
        :meth:`port_matrix`, :meth:`build_tables`) goes through here.
        """
        for klass in type(self).__mro__:
            attrs = vars(klass)
            if fast in attrs:
                return getattr(self, fast)
            if scalar in attrs:
                return None
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(FT({self.ft.m}, {self.ft.n}), "
            f"lmc={self.lmc})"
        )


_REGISTRY: Dict[str, Callable[[FatTree], RoutingScheme]] = {}


def register_scheme(name: str, factory: Callable[[FatTree], RoutingScheme]) -> None:
    """Register a scheme factory under ``name`` (case-insensitive)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ValueError(f"scheme {name!r} already registered")
    _REGISTRY[key] = factory


def get_scheme(name: str, ft: FatTree, **kwargs) -> RoutingScheme:
    """Instantiate a registered scheme ('mlid' or 'slid') on ``ft``.

    Extra keyword arguments are passed to the factory (e.g.
    ``strict_iba=False`` for MLID on fabrics beyond the IBA LMC
    ceiling).
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(ft, **kwargs)


def available_schemes() -> List[str]:
    """Names of all registered schemes."""
    return sorted(_REGISTRY)
