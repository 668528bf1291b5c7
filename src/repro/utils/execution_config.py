"""One frozen object for every execution knob — table mode, execution
mode, shard/worker counts, worker addresses and the cluster secret.

:class:`ExecutionConfig` is the only way to choose how work executes: one
frozen, hashable, picklable value threaded through
:func:`repro.utils.ensemble.ensemble_samples`,
:func:`repro.utils.sharding.ingest_sharded` and the other sharding
helpers, :func:`repro.evaluation.distribution_tests.evaluate_sampler_distribution`,
:meth:`repro.applications.distributed.DistributedSamplingCoordinator.bulk_samples`,
and the sampler service.  A config is consumed where work is scheduled;
no ensemble or sketch keeps one, so its ``cluster_secret`` never rides
along in a pickle.

Precedence
----------
``explicit field > environment > default``, concretely:

1. :meth:`ExecutionConfig.from_env` is the **only** place environment
   variables enter: ``REPRO_TABLE_MODE`` (hash-table evaluation mode),
   ``REPRO_DISTRIBUTED_WORKERS`` (comma-separated ``host:port`` worker
   list, as understood by :func:`repro.utils.coordinator.default_workers`),
   and ``REPRO_CLUSTER_SECRET`` / ``REPRO_CLUSTER_SECRET_FILE`` (worker
   authentication, as understood by
   :func:`repro.utils.transport.resolve_cluster_secret`).  Explicit
   keyword overrides to ``from_env`` beat the environment.
2. Field defaults (``execution="serial"``, ``None`` elsewhere) apply
   last.

A config never mutates process-wide registries on construction;
:meth:`ExecutionConfig.apply_defaults` does that explicitly for
long-lived processes (the sampler service calls it at startup).
"""

from __future__ import annotations

import dataclasses
import numbers
import os
from typing import Optional, Tuple

from repro.exceptions import InvalidParameterError

__all__ = [
    "EXECUTION_MODES",
    "TABLE_MODE_ENV",
    "ExecutionConfig",
]

#: Environment variable read by :meth:`ExecutionConfig.from_env` for the
#: table mode (the worker and secret variables belong to the coordinator
#: and transport modules).
TABLE_MODE_ENV = "REPRO_TABLE_MODE"

#: Execution back-ends accepted by ``ExecutionConfig.execution``.
EXECUTION_MODES = ("serial", "threaded", "multiprocessing", "distributed")


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """Frozen bundle of execution knobs; every field has a safe default.

    Fields
    ------
    table_mode:
        Hash-table evaluation mode (``"cached"``/``"private"``/
        ``"blocked"``) applied while *constructing* sketches through the
        ensemble/sharding helpers; ``None`` defers to the process
        default (:func:`repro.utils.table_cache.default_table_mode`).
    execution / num_shards / processes / batch_size:
        The sharding layer's knobs, exactly as
        :func:`repro.utils.sharding.ingest_sharded` defines them.  The
        three counts are ``None`` or an integer ``>= 1``.
    workers / cluster_secret:
        Distributed-backend worker addresses and transport secret;
        ``None`` defers to the coordinator/transport env registries.
    """

    table_mode: Optional[str] = None
    execution: str = "serial"
    num_shards: Optional[int] = None
    processes: Optional[int] = None
    batch_size: Optional[int] = None
    workers: Optional[Tuple[str, ...]] = None
    cluster_secret: Optional[str] = dataclasses.field(
        default=None, repr=False)

    def __post_init__(self):
        if self.execution not in EXECUTION_MODES:
            raise InvalidParameterError(
                f"execution must be one of {EXECUTION_MODES}, "
                f"got {self.execution!r}")
        for name in ("num_shards", "processes", "batch_size"):
            value = getattr(self, name)
            if value is None:
                continue
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool) or value < 1):
                raise InvalidParameterError(
                    f"{name} must be None or an integer >= 1, got {value!r}")
        if self.table_mode is not None:
            from repro.utils.table_cache import TABLE_MODES
            if self.table_mode not in TABLE_MODES:
                raise InvalidParameterError(
                    f"table_mode must be one of {TABLE_MODES}, "
                    f"got {self.table_mode!r}")
        if self.workers is not None and not isinstance(self.workers, tuple):
            object.__setattr__(self, "workers", tuple(self.workers))

    # -- construction --------------------------------------------------------
    @classmethod
    def from_env(cls, env: Optional[dict] = None, **overrides):
        """Build a config from the environment (see module docstring).

        ``overrides`` are explicit-argument-precedence keyword fields:
        they beat the environment, which beats the field defaults.
        """
        env = os.environ if env is None else env
        values = {}
        table_mode = env.get(TABLE_MODE_ENV, "").strip()
        if table_mode:
            values["table_mode"] = table_mode
        from repro.utils.coordinator import WORKERS_ENV
        workers = env.get(WORKERS_ENV, "").strip()
        if workers:
            values["workers"] = tuple(
                part.strip() for part in workers.split(",") if part.strip())
        from repro.utils.transport import resolve_cluster_secret
        secret = resolve_cluster_secret(env)
        if secret is not None:
            values["cluster_secret"] = secret.decode("utf-8", "surrogateescape")
        values.update(overrides)
        return cls(**values)

    # -- derived views -------------------------------------------------------
    def replace(self, **changes) -> "ExecutionConfig":
        return dataclasses.replace(self, **changes)

    def table_mode_scope(self):
        """Context manager applying ``table_mode`` as the process default.

        A no-op ``nullcontext`` when ``table_mode is None`` — existing
        behaviour (process default / per-sketch kwargs) is untouched.
        """
        from contextlib import nullcontext
        if self.table_mode is None:
            return nullcontext()
        from repro.utils.table_cache import table_mode
        return table_mode(self.table_mode)

    def apply_defaults(self) -> None:
        """Install this config's registry-backed fields process-wide.

        Sets the default table mode and the distributed worker list for
        fields that are not ``None``.  Meant for long-lived processes
        (the sampler service daemon calls it at startup); short-lived
        calls should pass the config down instead.
        """
        if self.table_mode is not None:
            from repro.utils.table_cache import set_default_table_mode
            set_default_table_mode(self.table_mode)
        if self.workers is not None:
            from repro.utils.coordinator import set_default_workers
            set_default_workers(self.workers or None)

