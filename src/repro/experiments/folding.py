"""Symmetry folding for the flow-level evaluator.

A perfect FT(m, n) has a large automorphism group: permuting the value
space of any one label position — ``pi_0`` over the ``m`` values of
digit 0, ``pi_j`` over the ``m/2`` values of digit ``j >= 1`` —
relabels nodes, switches and ports consistently (a switch at level
``l`` carries every node position except ``l``; its down/up/eject port
index at that level *is* position ``l``'s digit).  MLID and SLID routes
are closed-form functions of the digit patterns, so they commute with
this action: ``route(g.src, g.dst) = g.route(src, dst)``.

Two consequences, exploited here:

* **Flow classes fold into orbits.**  All (source-leaf, DLID) classes
  whose digit *relation pattern* matches are interchangeable — same
  hop count, same sequence of link kinds, same demand weight.  Under
  uniform traffic the relevant group is the full product of symmetric
  groups and the pattern of a pair is one of two states per position
  (``s_j == d_j`` or not).  Under k%-centric traffic the group shrinks
  to the stabilizer of the hot node (node 0, the all-zeros label) and
  each position refines into five states (both zero / equal nonzero /
  src-zero / dst-zero / distinct nonzero).  Enumerating state vectors
  gives every orbit in closed form with exact integer multiplicities —
  ``O(2^n)`` or ``O(5^n)`` groups instead of up to tens of millions of
  classes.

* **Links and engines fold into types.**  The same action is
  transitive on the directed channels sharing (level, kind) — kind is
  eject / down / up — and, for the centric stabilizer, sharing
  additionally the zero-pattern of the switch digits and whether the
  port digit is zero.  Every physical link of a type carries exactly
  the same load for any orbit-constant class weighting (the action
  maps crossings of one link bijectively onto crossings of its image),
  so the fixed point may run over types and divide by multiplicity.

Exactness: per-link load of a folded model is
``sum_g w_g * n_classes_g * crossings(g, t) / mult_t`` where the
numerator summands are integers divisible by ``mult_t`` — the division
is exact in float64, which is why
:func:`repro.experiments.flowlevel.flow_link_loads` stays
*bit-identical* to the unfolded oracle (asserted in
``tests/experiments/test_folding.py``).

Every sweep folds; ``build_flow_model(fold=False)`` keeps the
unfolded oracle for the tests.  Folding degrades transparently:
schemes without a registered closed-form orbit enumeration (the
hashed/staggered MLID variants break equivariance on purpose) and
unsupported patterns build unfolded models.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.forwarding import MlidScheme
from repro.core.kernel import FabricArrays
from repro.core.scheme import RoutingScheme
from repro.core.slid import SlidScheme

__all__ = [
    "ClassGroup",
    "LinkTypes",
    "EngineTypes",
    "foldable",
    "fold_class_groups",
    "link_types",
    "engine_types",
]


@dataclass(frozen=True)
class ClassGroup:
    """One orbit of flow classes, with a canonical representative.

    ``src``/``dst`` are node labels of a representative (src, dst)
    pair whose class (source leaf, DLID) represents the orbit.  The
    orbit contains ``n_classes`` interchangeable classes; each class
    aggregates ``cnt_all`` (src, dst) pairs, of which ``cnt_hotdst``
    terminate at the hot node and ``cnt_hotsrc`` originate there
    (both zero for uniform folds).
    """

    src: Tuple[int, ...]
    dst: Tuple[int, ...]
    n_classes: int
    cnt_all: int
    cnt_hotdst: int = 0
    cnt_hotsrc: int = 0


@dataclass(frozen=True)
class LinkTypes:
    """Folded view of the ``S * m`` directed channels."""

    #: (S * m,) type id of every flat route code.
    type_of_code: np.ndarray
    #: (T,) physical channels per type.
    mult: np.ndarray
    #: (T,) whether the type's channels are node-ejection links.
    is_ejection: np.ndarray

    @property
    def num_types(self) -> int:
        return int(self.mult.size)


@dataclass(frozen=True)
class EngineTypes:
    """Folded view of the ``S`` switch routing-engine pools."""

    #: (S,) type id of every switch.
    type_of_switch: np.ndarray
    #: (E,) switches per type.
    mult: np.ndarray

    @property
    def num_types(self) -> int:
        return int(self.mult.size)


# ----------------------------------------------------------------------
# Per-position pair states
# ----------------------------------------------------------------------
#
# A (src, dst) node pair is summarized per label position by the
# relation of the two digits.  ``count(r)`` is the number of digit
# pairs of radix ``r`` in the state; ``rep`` a canonical digit pair
# (valid whenever ``count(r) > 0``); ``eq`` whether the digits are
# equal; ``s_zero``/``d_zero`` whether src/dst digit is zero (defined
# for the centric states only — the uniform group mixes zero with
# nonzero, so its states carry ``None``).

_STATE_DEFS: Dict[str, dict] = {
    # uniform (full product of symmetric groups): 2 states
    "EQ": dict(count=lambda r: r, rep=(0, 0), eq=True, s0=None, d0=None),
    "NE": dict(count=lambda r: r * (r - 1), rep=(0, 1), eq=False, s0=None, d0=None),
    # centric (stabilizer of the all-zeros hot node): 5 states
    "ZZ": dict(count=lambda r: 1, rep=(0, 0), eq=True, s0=True, d0=True),
    "EE": dict(count=lambda r: r - 1, rep=(1, 1), eq=True, s0=False, d0=False),
    "ZD": dict(count=lambda r: r - 1, rep=(0, 1), eq=False, s0=True, d0=False),
    "SZ": dict(count=lambda r: r - 1, rep=(1, 0), eq=False, s0=False, d0=True),
    "XX": dict(count=lambda r: (r - 1) * (r - 2), rep=(1, 2), eq=False, s0=False, d0=False),
}

_UNIFORM_STATES = ("EQ", "NE")
_CENTRIC_STATES = ("ZZ", "EE", "ZD", "SZ", "XX")


def _radices(m: int, n: int) -> List[int]:
    """Value-space size of each node label position."""
    return [m] + [m // 2] * (n - 1)


def _vec_count(vec: Tuple[str, ...], radices: List[int]) -> int:
    return math.prod(_STATE_DEFS[st]["count"](r) for st, r in zip(vec, radices))


def _vec_reps(vec: Tuple[str, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    src = tuple(_STATE_DEFS[st]["rep"][0] for st in vec)
    dst = tuple(_STATE_DEFS[st]["rep"][1] for st in vec)
    return src, dst


def _all(vec: Tuple[str, ...], flag: str) -> bool:
    return all(_STATE_DEFS[st][flag] for st in vec)


# ----------------------------------------------------------------------
# Class-group enumeration
# ----------------------------------------------------------------------


def _fold_mlid(m: int, n: int, pattern: str) -> List[ClassGroup]:
    """MLID orbits.  Distinct-leaf classes are 1:1 with (src, dst)
    pairs (the DLID offset encodes the full source suffix), so those
    orbits enumerate pair-state vectors over all ``n`` positions.
    Same-leaf destinations share DLID = BaseLID(dst): one class per
    (leaf, dst) aggregating the leaf's other ``m/2 - 1`` sources."""
    radices = _radices(m, n)
    states = _UNIFORM_STATES if pattern == "uniform" else _CENTRIC_STATES
    centric = pattern == "centric"
    last_r = radices[-1]
    groups: List[ClassGroup] = []

    # Distinct-leaf pairs: at least one differing digit among the
    # first n-1 positions (the leaf prefix).
    for vec in itertools.product(states, repeat=n):
        if all(_STATE_DEFS[st]["eq"] for st in vec[:-1]):
            continue  # same leaf (or same node): aggregated below
        count = _vec_count(vec, radices)
        if count == 0:
            continue
        src, dst = _vec_reps(vec)
        groups.append(
            ClassGroup(
                src,
                dst,
                n_classes=count,
                cnt_all=1,
                cnt_hotdst=int(centric and _all(vec, "d0")),
                cnt_hotsrc=int(centric and _all(vec, "s0")),
            )
        )

    # Same-leaf classes: prefix states all equal; the class key folds
    # away the source's last digit.
    eq_states = tuple(st for st in states if _STATE_DEFS[st]["eq"])
    for vec in itertools.product(eq_states, repeat=n - 1):
        prefix_count = _vec_count(vec, radices[:-1])
        if prefix_count == 0:
            continue
        sp, dp = _vec_reps(vec)  # sp == dp: the shared leaf prefix
        if not centric:
            groups.append(
                ClassGroup(
                    sp + (1,),
                    dp + (0,),
                    n_classes=prefix_count * last_r,
                    cnt_all=last_r - 1,
                )
            )
            continue
        hot_leaf = _all(vec, "s0")  # leaf prefix all zero
        # dst last digit zero (dst == hot node iff hot_leaf too):
        groups.append(
            ClassGroup(
                sp + (1,),
                dp + (0,),
                n_classes=prefix_count,
                cnt_all=last_r - 1,
                cnt_hotdst=(last_r - 1) if hot_leaf else 0,
            )
        )
        # dst last digit nonzero:
        if last_r >= 2:
            groups.append(
                ClassGroup(
                    sp + (0,),
                    dp + (1,),
                    n_classes=prefix_count * (last_r - 1),
                    cnt_all=last_r - 1,
                    cnt_hotsrc=1 if hot_leaf else 0,
                )
            )
    return groups


def _fold_slid(m: int, n: int, pattern: str) -> List[ClassGroup]:
    """SLID orbits.  Every class is one (leaf, dst) pair — the DLID is
    the destination's base LID — so orbits enumerate the relation of
    the leaf prefix to the destination prefix, with the destination's
    last digit folding freely (uniform) or splitting on zero
    (centric)."""
    radices = _radices(m, n)
    states = _UNIFORM_STATES if pattern == "uniform" else _CENTRIC_STATES
    centric = pattern == "centric"
    last_r = radices[-1]
    groups: List[ClassGroup] = []

    for vec in itertools.product(states, repeat=n - 1):
        prefix_count = _vec_count(vec, radices[:-1])
        if prefix_count == 0:
            continue
        sp, dp = _vec_reps(vec)  # leaf prefix vs dst prefix
        on_leaf = all(_STATE_DEFS[st]["eq"] for st in vec)
        cnt_all = last_r - 1 if on_leaf else last_r
        if not centric:
            groups.append(
                ClassGroup(
                    sp + (1,),
                    dp + (0,),
                    n_classes=prefix_count * last_r,
                    cnt_all=cnt_all,
                )
            )
            continue
        hot_leaf = _all(vec, "s0")
        dst0_prefix = _all(vec, "d0")
        # dst last digit zero: dst == hot node iff its prefix is zero.
        groups.append(
            ClassGroup(
                sp + (1,),
                dp + (0,),
                n_classes=prefix_count,
                cnt_all=cnt_all,
                cnt_hotdst=cnt_all if dst0_prefix else 0,
                cnt_hotsrc=1 if (hot_leaf and not dst0_prefix) else 0,
            )
        )
        # dst last digit nonzero: dst != hot node always.
        if last_r >= 2:
            groups.append(
                ClassGroup(
                    sp + (0,),
                    dp + (1,),
                    n_classes=prefix_count * (last_r - 1),
                    cnt_all=cnt_all,
                    cnt_hotsrc=1 if hot_leaf else 0,
                )
            )
    return groups


#: Schemes with a registered closed-form orbit enumeration.  Exact
#: type match on purpose: subclasses (mlid-hash, mlid-stagger) change
#: the DLID offset in equivariance-breaking ways and must fall back to
#: the unfolded build.
_ENUMERATORS = {
    MlidScheme: _fold_mlid,
    SlidScheme: _fold_slid,
}


def foldable(scheme: RoutingScheme, pattern: str) -> bool:
    """Whether ``scheme`` x ``pattern`` has an exact fold."""
    return (
        type(scheme) in _ENUMERATORS
        and pattern in ("uniform", "centric")
        and scheme.ft.n >= 2
    )


def fold_class_groups(scheme: RoutingScheme, pattern: str) -> List[ClassGroup]:
    """Enumerate the flow-class orbits of ``scheme`` under ``pattern``."""
    if not foldable(scheme, pattern):
        raise ValueError(
            f"no closed-form fold for scheme {scheme.name!r} with "
            f"pattern {pattern!r}"
        )
    ft = scheme.ft
    return _ENUMERATORS[type(scheme)](ft.m, ft.n, pattern)


# ----------------------------------------------------------------------
# Link / engine typing
# ----------------------------------------------------------------------


def _digit_zero_mask(digits: np.ndarray) -> np.ndarray:
    """Bit mask of zero-valued digits per row."""
    bits = (digits == 0).astype(np.int64)
    return bits @ (1 << np.arange(digits.shape[1], dtype=np.int64))


def link_types(arrays: FabricArrays, pattern: str) -> LinkTypes:
    """Type every directed channel by its orbit signature.

    Uniform: (level, kind).  Centric: additionally the zero-pattern of
    the switch digits and whether the port digit (down/eject: the port
    index; up: index minus m/2) is zero — exactly the invariants of
    the hot node's stabilizer.
    """
    m = arrays.m
    half = m // 2
    level = arrays.switch_level.astype(np.int64)[:, None]  # (S, 1)
    ports = np.arange(m, dtype=np.int64)[None, :]  # (1, m)
    eject = arrays.peer_node >= 0
    up = (~eject) & (ports >= half) & (level > 0)
    kind = np.where(eject, 0, np.where(up, 2, 1))  # (S, m)

    sig = level * 4 + kind
    if pattern == "centric":
        zmask = _digit_zero_mask(arrays.switch_digits)[:, None]
        port_zero = np.where(up, ports == half, ports == 0)
        sig = (sig << (arrays.n - 1) | zmask) << 1 | port_zero

    flat = sig.reshape(-1)
    _, type_of_code, mult = np.unique(flat, return_inverse=True, return_counts=True)
    is_ejection = np.zeros(mult.size, dtype=bool)
    is_ejection[type_of_code] = eject.reshape(-1)
    return LinkTypes(
        type_of_code=type_of_code.astype(np.int64),
        mult=mult.astype(np.int64),
        is_ejection=is_ejection,
    )


def engine_types(arrays: FabricArrays, pattern: str) -> EngineTypes:
    """Type every switch's routing-engine pool by its orbit signature
    (level; plus the digit zero-pattern under centric)."""
    sig = arrays.switch_level.astype(np.int64)
    if pattern == "centric":
        sig = sig << (arrays.n - 1) | _digit_zero_mask(arrays.switch_digits)
    _, type_of_switch, mult = np.unique(sig, return_inverse=True, return_counts=True)
    return EngineTypes(
        type_of_switch=type_of_switch.astype(np.int64),
        mult=mult.astype(np.int64),
    )
