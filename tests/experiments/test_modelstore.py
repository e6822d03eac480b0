"""Persistent flow-model store: roundtrips, versioning, CLI.

The store's contract is "a loaded model is indistinguishable from a
freshly compiled one": every array roundtrips bit-for-bit (memory-
mapped, read-only) and evaluation over a loaded model produces the
exact dicts a fresh build would.  Version-stamp mismatches must fail
*silently* on the hot path (rebuild) and *loudly* in the inspection
CLI (actionable error).
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import flowlevel, modelstore
from repro.experiments.flowlevel import (
    build_flow_model,
    clear_flow_models,
    evaluate_point,
    get_flow_model,
)
from repro.ib.artifacts import routing_cache_info
from repro.ib.config import SimConfig

CFG = SimConfig(routing_engines_per_switch=0)


@pytest.fixture(autouse=True)
def _fresh_lru():
    clear_flow_models()
    yield
    clear_flow_models()


def _arrays_equal(a, b):
    for name in modelstore._ARRAY_FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        if left is None or right is None:
            assert left is None and right is None, name
        else:
            assert np.array_equal(np.asarray(left), np.asarray(right)), name


# -- roundtrip ----------------------------------------------------------


@pytest.mark.parametrize("fold", [False, True])
def test_save_load_roundtrip(tmp_path, fold):
    model = build_flow_model(4, 2, "mlid", "centric", fold=fold)
    path = modelstore.save_model(model, fold=fold, store=tmp_path)
    assert path is not None and (path / "meta.json").is_file()
    loaded = modelstore.load_model(
        4, 2, "mlid", "centric", 0.5, fold=fold, store=tmp_path
    )
    assert loaded is not None and loaded.folded == fold
    _arrays_equal(model, loaded)
    # Evaluation over the mmap-backed copy is exactly the fresh result.
    assert evaluate_point(loaded, CFG, 0.6) == evaluate_point(model, CFG, 0.6)


def test_load_absent_returns_none(tmp_path):
    assert (
        modelstore.load_model(4, 2, "mlid", "uniform", 0.0, fold=True, store=tmp_path)
        is None
    )


def test_store_false_disables_disk(tmp_path):
    model = build_flow_model(4, 2, "mlid", "uniform")
    assert modelstore.save_model(model, fold=True, store=False) is None


def test_loaded_arrays_are_memory_mapped(tmp_path):
    model = build_flow_model(4, 2, "slid", "uniform", fold=True)
    modelstore.save_model(model, fold=True, store=tmp_path)
    loaded = modelstore.load_model(
        4, 2, "slid", "uniform", 0.0, fold=True, store=tmp_path
    )
    assert isinstance(loaded.flat_codes, np.memmap)
    assert not loaded.flat_codes.flags.writeable


# -- version stamping ---------------------------------------------------


def _stamp_stale(root, key):
    meta_path = root / key / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["version"] = modelstore.FLOW_MODEL_VERSION - 1
    meta_path.write_text(json.dumps(meta))


def test_stale_version_rebuilds_silently(tmp_path):
    model = build_flow_model(4, 2, "mlid", "uniform", fold=True)
    path = modelstore.save_model(model, fold=True, store=tmp_path)
    _stamp_stale(tmp_path, path.name)
    assert (
        modelstore.load_model(4, 2, "mlid", "uniform", 0.0, fold=True, store=tmp_path)
        is None
    )
    listing = modelstore.list_models(tmp_path)
    assert listing and listing[0]["stale"]


def test_stale_version_is_loud_in_model_info(tmp_path):
    model = build_flow_model(4, 2, "mlid", "uniform", fold=True)
    path = modelstore.save_model(model, fold=True, store=tmp_path)
    _stamp_stale(tmp_path, path.name)
    with pytest.raises(modelstore.FlowCacheVersionError, match="flow-cache clear"):
        modelstore.model_info(path.name, tmp_path)


def test_model_info_unknown_key(tmp_path):
    with pytest.raises(KeyError, match="no cached flow model"):
        modelstore.model_info("ft4x2-nope-uniform-f0-folded", tmp_path)


def test_list_and_clear(tmp_path):
    for scheme in ("mlid", "slid"):
        modelstore.save_model(
            build_flow_model(4, 2, scheme, "uniform"), fold=True, store=tmp_path
        )
    assert [e["key"] for e in modelstore.list_models(tmp_path)] == [
        "ft4x2-mlid-uniform-f0-folded",
        "ft4x2-slid-uniform-f0-folded",
    ]
    assert modelstore.clear_models(tmp_path) == 2
    assert modelstore.list_models(tmp_path) == []


# -- get_flow_model integration ----------------------------------------


def test_get_flow_model_hits_disk_after_process_restart(monkeypatch):
    # First call compiles and spills to the (test-isolated) default
    # store; dropping the LRU simulates a fresh process.  The second
    # call must come straight from disk — compiling again is an error.
    first = get_flow_model(4, 2, "mlid", "centric", fold=False)
    clear_flow_models()

    def _boom(*a, **k):
        raise AssertionError("cache miss: model was recompiled")

    monkeypatch.setattr(flowlevel, "build_flow_model", _boom)
    second = get_flow_model(4, 2, "mlid", "centric", fold=False)
    assert second is not first
    _arrays_equal(first, second)
    assert evaluate_point(second, CFG, 0.7) == evaluate_point(first, CFG, 0.7)


def test_get_flow_model_spills_only_unfolded_models():
    # A folded compile takes milliseconds, no longer than its spill;
    # only the unfolded model, minutes to compile at scale, is kept.
    get_flow_model(4, 2, "mlid", "centric")
    assert modelstore.list_models() == []
    get_flow_model(4, 2, "mlid", "centric", fold=False)
    assert [e["key"] for e in modelstore.list_models()] == [
        modelstore.model_key(4, 2, "mlid", "centric", 0.5, False)
    ]


def test_get_flow_model_lru_is_bounded(monkeypatch):
    monkeypatch.setattr(flowlevel, "_MODEL_CACHE_CAP", 2)
    get_flow_model(4, 2, "mlid", "uniform", store=False)
    get_flow_model(4, 2, "slid", "uniform", store=False)
    get_flow_model(4, 2, "mlid", "centric", store=False)
    info = flowlevel.flow_model_cache_info()
    assert info["size"] == 2
    # Oldest (mlid, uniform) was evicted; the two recent keys remain.
    assert (4, 2, "mlid", "uniform", 0.0, True) not in info["keys"]


def test_routing_cache_info_cross_references_stores():
    get_flow_model(4, 2, "mlid", "uniform", fold=False)
    info = routing_cache_info()
    assert info["flow_models"]["size"] >= 1
    assert info["flow_store"]["models"] >= 1  # spilled to the isolated dir


# -- CLI ----------------------------------------------------------------


def test_cli_flow_cache_list_info_clear(tmp_path, capsys):
    modelstore.save_model(
        build_flow_model(4, 2, "mlid", "uniform"), fold=True, store=tmp_path
    )
    assert main(["flow-cache", "list", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ft4x2-mlid-uniform-f0-folded" in out

    assert (
        main(["flow-cache", "info", "ft4x2-mlid-uniform-f0-folded", "--dir", str(tmp_path)])
        == 0
    )
    out = capsys.readouterr().out
    assert '"version": 1' in out

    assert main(["flow-cache", "clear", "--dir", str(tmp_path)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert main(["flow-cache", "list", "--dir", str(tmp_path)]) == 0
    assert "no cached flow models" in capsys.readouterr().out


def test_cli_flow_cache_stale_info_is_actionable(tmp_path, capsys):
    path = modelstore.save_model(
        build_flow_model(4, 2, "mlid", "uniform"), fold=True, store=tmp_path
    )
    _stamp_stale(tmp_path, path.name)
    with pytest.raises(SystemExit, match="flow-cache clear"):
        main(["flow-cache", "info", path.name, "--dir", str(tmp_path)])


def test_cli_flow_cache_info_requires_key():
    with pytest.raises(SystemExit, match="needs a model key"):
        main(["flow-cache", "info"])
