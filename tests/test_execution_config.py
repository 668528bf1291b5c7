"""ExecutionConfig: env precedence, validation, and what never leaks.

The precedence contract (module docstring of
:mod:`repro.utils.execution_config`) is ``explicit field > environment >
default``.  A config is consumed where work is scheduled and never kept
by an ensemble, so its ``cluster_secret`` cannot reach a snapshot or a
worker payload; this suite pins that with a byte search of the pickle.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

from repro.core.cap_sampler import CapSampler
from repro.exceptions import InvalidParameterError
from repro.sketch.countsketch import CountSketch
from repro.streams.generators import stream_from_vector
from repro.utils import sharding
from repro.utils.execution_config import (
    EXECUTION_MODES,
    ExecutionConfig,
    TABLE_MODE_ENV,
)
from repro.utils.sharding import (
    ingest_sharded,
    replica_sharded_ensemble,
    stream_sharded_ensemble,
)
from repro.utils.ensemble import build_ensemble


@pytest.fixture()
def stream():
    return stream_from_vector(np.array([5.0, -2.0, 0.0, 7.0, 1.0]), seed=3)


def _sketches(count=4, seed0=0):
    return [CountSketch(5, 8, 3, seed=seed0 + s) for s in range(count)]


# ---------------------------------------------------------------------------
# Construction, validation, env precedence
# ---------------------------------------------------------------------------


def test_defaults_are_numpy_serial() -> None:
    config = ExecutionConfig()
    assert config.execution == "serial"
    assert config.table_mode is None


def test_invalid_execution_and_table_mode_rejected() -> None:
    with pytest.raises(InvalidParameterError, match="execution"):
        ExecutionConfig(execution="warp-drive")
    with pytest.raises(InvalidParameterError, match="table_mode"):
        ExecutionConfig(table_mode="imaginary")


def test_one_list_of_execution_modes() -> None:
    assert sharding.EXECUTION_MODES is EXECUTION_MODES
    with pytest.raises(InvalidParameterError, match="execution"):
        ExecutionConfig(execution="sharded")


@pytest.mark.parametrize("value", [0, -1, True, 2.5])
@pytest.mark.parametrize("field", ["num_shards", "processes", "batch_size"])
def test_counts_must_be_integers_of_at_least_one(field, value) -> None:
    with pytest.raises(InvalidParameterError, match=field):
        ExecutionConfig(**{field: value})


def test_counts_accept_numpy_integers() -> None:
    assert ExecutionConfig(num_shards=np.int64(3)).num_shards == 3


def test_from_env_reads_all_variables() -> None:
    env = {
        TABLE_MODE_ENV: "blocked",
        "REPRO_DISTRIBUTED_WORKERS": "127.0.0.1:9001, 127.0.0.1:9002",
        "REPRO_CLUSTER_SECRET": "hunter2",
    }
    config = ExecutionConfig.from_env(env)
    assert config.table_mode == "blocked"
    assert config.workers == ("127.0.0.1:9001", "127.0.0.1:9002")
    assert config.cluster_secret == "hunter2"


def test_from_env_explicit_overrides_beat_environment() -> None:
    env = {TABLE_MODE_ENV: "blocked", "REPRO_CLUSTER_SECRET": "hunter2"}
    config = ExecutionConfig.from_env(env, table_mode="cached",
                                      cluster_secret="explicit")
    assert config.table_mode == "cached"
    assert config.cluster_secret == "explicit"


def test_from_env_empty_environment_is_all_defaults() -> None:
    assert ExecutionConfig.from_env({}) == ExecutionConfig()


def test_config_is_frozen_hashable_picklable() -> None:
    config = ExecutionConfig(table_mode="blocked", num_shards=3)
    with pytest.raises(Exception):
        config.execution = "threaded"  # type: ignore[misc]
    assert pickle.loads(pickle.dumps(config)) == config
    assert hash(config) == hash(config.replace())
    assert config.replace(num_shards=5).num_shards == 5


def test_cluster_secret_hidden_from_repr() -> None:
    config = ExecutionConfig(cluster_secret="hunter2")
    assert "hunter2" not in repr(config)


def test_apply_defaults_installs_table_mode() -> None:
    from repro.utils.table_cache import default_table_mode, set_default_table_mode
    previous = default_table_mode()
    try:
        ExecutionConfig(table_mode="private").apply_defaults()
        assert default_table_mode() == "private"
    finally:
        set_default_table_mode(previous)


def test_table_mode_scope_applies_and_restores() -> None:
    from repro.utils.table_cache import default_table_mode
    previous = default_table_mode()
    with ExecutionConfig(table_mode="blocked").table_mode_scope():
        assert default_table_mode() == "blocked"
    assert default_table_mode() == previous
    with ExecutionConfig().table_mode_scope():  # None → nullcontext
        assert default_table_mode() == previous


# ---------------------------------------------------------------------------
# Config threading, and what an ensemble keeps of it
# ---------------------------------------------------------------------------


def test_config_drives_sharding_without_warnings(stream) -> None:
    config = ExecutionConfig(num_shards=2, execution="serial")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        ensemble = replica_sharded_ensemble(_sketches(), stream, config=config)
        ingest_sharded([build_ensemble(_sketches())], [stream], config=config)
    baseline = build_ensemble(_sketches())
    baseline.update_stream(stream)
    np.testing.assert_array_equal(ensemble._table, baseline._table)


#: Marker standing in for a cluster secret; its bytes must never appear
#: in the pickle of an ensemble built under a config that carries it.
SECRET_MARKER = "cluster-secret-marker-5f0c1e"


def _ensemble_built_under(how: str, config: ExecutionConfig, stream):
    if how == "build_ensemble":
        with config.table_mode_scope():
            return build_ensemble(_sketches())
    if how == "replica_sharded":
        return replica_sharded_ensemble(_sketches(), stream, config=config)
    if how == "stream_sharded":
        return stream_sharded_ensemble(
            lambda seed: CountSketch(5, 8, 3, seed=seed), range(4), stream,
            config=config)
    assert how == "sampler_fallback"
    return replica_sharded_ensemble(
        [CapSampler(5, 9.0, 2.0, seed=seed, num_repetitions=4)
         for seed in range(4)], stream, config=config)


@pytest.mark.parametrize("how", ["build_ensemble", "replica_sharded",
                                 "stream_sharded", "sampler_fallback"])
def test_ensemble_pickle_never_carries_the_cluster_secret(how,
                                                          stream) -> None:
    """The pickle is the body of a snapshot and of a worker payload."""
    config = ExecutionConfig(num_shards=2, cluster_secret=SECRET_MARKER)
    ensemble = _ensemble_built_under(how, config, stream)
    assert ensemble.num_replicas == 4
    payload = pickle.dumps(ensemble, protocol=5)
    assert SECRET_MARKER.encode() not in payload
