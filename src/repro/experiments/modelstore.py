"""Persistent, memory-mapped store for compiled flow models.

Compiling an *unfolded* FT(32, 3) MLID :class:`FlowModel` costs
minutes of route tracing.  This module spills compiled models to disk
— one directory per model, one ``.npy`` file per array plus a
``meta.json`` — and loads them back with ``numpy`` memory mapping, so
a repeated sweep touches pages on demand instead of re-tracing routes.
:func:`~repro.experiments.flowlevel.get_flow_model` spills only
unfolded models; a folded compile takes milliseconds, no longer than
its spill.

Layout::

    <cache dir>/<key>/meta.json
    <cache dir>/<key>/<field>.npy

where ``<key>`` encodes ``(m, n, scheme, pattern, hotspot fraction,
fold)`` and ``meta.json`` carries the scalar fields plus a
``version`` stamp (:data:`FLOW_MODEL_VERSION`).  The stamp is bumped
whenever the compiled representation changes; stale artifacts are
rebuilt silently by :func:`load_model` (it returns ``None``) and
reported loudly by the ``repro flow-cache`` CLI, whose ``info``
command raises :class:`FlowCacheVersionError` with the fix.

Writes are atomic (temp directory + ``os.rename``) and tolerate
concurrent writers: whoever renames first wins, later writers replace
the key wholesale.  The default location is
``~/.cache/repro-ibft/flow-models``, overridable with the
``REPRO_FLOW_CACHE_DIR`` environment variable or a ``store=`` path;
``store=False`` disables the disk layer entirely.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.experiments.flowlevel import FlowModel

__all__ = [
    "FLOW_MODEL_VERSION",
    "FlowCacheVersionError",
    "default_cache_dir",
    "model_key",
    "save_model",
    "load_model",
    "list_models",
    "model_info",
    "clear_models",
]

#: Code-version stamp of the compiled representation.  Bump whenever
#: FlowModel's persisted fields or the compiler's semantics change.
FLOW_MODEL_VERSION = 1

_META = "meta.json"

#: Array fields persisted per model (optional fields may be absent).
_ARRAY_FIELDS = (
    "class_keys",
    "cnt_all",
    "cnt_hotdst",
    "cnt_hotsrc",
    "coef",
    "hops",
    "flat_codes",
    "offsets",
    "is_ejection",
    "unit_link",
    "unit_engine",
    "class_mult",
    "engine_codes",
    "link_mult",
    "engine_mult",
    "link_type_of_code",
)

_SCALAR_FIELDS = (
    "m",
    "n",
    "scheme",
    "pattern",
    "hotspot_fraction",
    "num_nodes",
    "num_switches",
    "num_leaves",
    "lids_per_node",
    "folded",
    "num_links",
    "num_engines",
)


class FlowCacheVersionError(RuntimeError):
    """A cached model's code-version stamp mismatches this build."""


StoreArg = Union[None, bool, str, Path]


def default_cache_dir() -> Path:
    """The flow-model cache directory (env-overridable)."""
    env = os.environ.get("REPRO_FLOW_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-ibft" / "flow-models"


def _resolve(store: StoreArg) -> Optional[Path]:
    """Map a ``store=`` argument to a directory (None = disabled)."""
    if store is False:
        return None
    if store is None or store is True:
        return default_cache_dir()
    return Path(store)


def model_key(
    m: int, n: int, scheme: str, pattern: str, frac: float, fold: bool
) -> str:
    """Directory name of one compiled model."""
    tail = "folded" if fold else "unfolded"
    return f"ft{m}x{n}-{scheme}-{pattern}-f{frac:g}-{tail}"


def save_model(
    model: FlowModel, *, fold: bool, store: StoreArg = None
) -> Optional[Path]:
    """Persist ``model`` under its key; returns the path (None when
    the store is disabled).  Atomic: assembled in a temp directory,
    renamed into place, replacing any previous artifact."""
    root = _resolve(store)
    if root is None:
        return None
    key = model_key(
        model.m, model.n, model.scheme, model.pattern,
        model.hotspot_fraction, fold,
    )
    final = root / key
    tmp = root / f".{key}.tmp-{os.getpid()}"
    root.mkdir(parents=True, exist_ok=True)
    if tmp.exists():  # pragma: no cover - stale crash leftover
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        arrays = []
        for name in _ARRAY_FIELDS:
            arr = getattr(model, name)
            if arr is None:
                continue
            np.save(tmp / f"{name}.npy", np.ascontiguousarray(arr))
            arrays.append(name)
        meta = {
            "version": FLOW_MODEL_VERSION,
            "key": key,
            "scalars": {f: getattr(model, f) for f in _SCALAR_FIELDS},
            "arrays": arrays,
            "created_unix": time.time(),
            "numpy": np.__version__,
        }
        (tmp / _META).write_text(json.dumps(meta, indent=1, sort_keys=True))
        if final.exists():
            shutil.rmtree(final)
        try:
            os.rename(tmp, final)
        except OSError:  # pragma: no cover - concurrent writer won
            shutil.rmtree(tmp, ignore_errors=True)
        return final
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _read_meta(path: Path) -> dict:
    return json.loads((path / _META).read_text())


def load_model(
    m: int,
    n: int,
    scheme: str,
    pattern: str,
    frac: float,
    *,
    fold: bool,
    store: StoreArg = None,
    mmap: bool = True,
) -> Optional[FlowModel]:
    """Load a cached model, or ``None`` (absent / stale / disabled).

    Arrays are memory-mapped read-only by default, so a multi-gigabyte
    unfolded model costs address space, not resident memory, until the
    solver touches its pages.
    """
    root = _resolve(store)
    if root is None:
        return None
    path = root / model_key(m, n, scheme, pattern, frac, fold)
    if not (path / _META).is_file():
        return None
    try:
        meta = _read_meta(path)
    except (OSError, json.JSONDecodeError):  # pragma: no cover - corrupt
        return None
    if meta.get("version") != FLOW_MODEL_VERSION:
        return None  # silently rebuilt; `repro flow-cache info` explains
    fields = dict(meta["scalars"])
    mode = "r" if mmap else None
    try:
        for name in meta["arrays"]:
            fields[name] = np.load(path / f"{name}.npy", mmap_mode=mode)
    except (OSError, ValueError):  # pragma: no cover - corrupt artifact
        return None
    for name in _ARRAY_FIELDS:
        fields.setdefault(name, None)
    return FlowModel(**fields)


def list_models(store: StoreArg = None) -> List[dict]:
    """Metadata summaries of every cached model (sorted by key)."""
    root = _resolve(store)
    if root is None or not root.is_dir():
        return []
    out = []
    for path in sorted(root.iterdir()):
        if not (path / _META).is_file():
            continue
        try:
            meta = _read_meta(path)
        except (OSError, json.JSONDecodeError):  # pragma: no cover
            continue
        size = sum(f.stat().st_size for f in path.iterdir())
        out.append(
            {
                "key": meta.get("key", path.name),
                "path": str(path),
                "version": meta.get("version"),
                "stale": meta.get("version") != FLOW_MODEL_VERSION,
                "size_bytes": size,
                "scalars": meta.get("scalars", {}),
                "created_unix": meta.get("created_unix"),
            }
        )
    return out


def model_info(key: str, store: StoreArg = None) -> dict:
    """Full metadata of one cached model by key.

    Raises :class:`FlowCacheVersionError` on a version mismatch, and
    ``KeyError`` when the key is absent.
    """
    root = _resolve(store)
    if root is None or not (root / key / _META).is_file():
        raise KeyError(f"no cached flow model {key!r}")
    meta = _read_meta(root / key)
    if meta.get("version") != FLOW_MODEL_VERSION:
        raise FlowCacheVersionError(
            f"cached flow model {key!r} was compiled by code version "
            f"{meta.get('version')} but this build expects "
            f"{FLOW_MODEL_VERSION}; it will be rebuilt on next use — "
            f"run `repro flow-cache clear` to drop stale artifacts now"
        )
    meta["path"] = str(root / key)
    return meta


def clear_models(store: StoreArg = None) -> int:
    """Remove every cached model; returns the number removed."""
    root = _resolve(store)
    if root is None or not root.is_dir():
        return 0
    removed = 0
    for path in list(root.iterdir()):
        if path.is_dir() and (path / _META).is_file():
            shutil.rmtree(path)
            removed += 1
    return removed
