"""Turnstile stream model and synthetic workload generators.

The streaming model of the paper (Section 1) defines a frequency vector
``x in R^n`` implicitly through a sequence of updates ``(i_t, delta_t)``:

    ``x_i = sum_{t : i_t = i} delta_t``.

``updates``
    The :class:`Update` record and stream-kind enumeration.
``stream``
    :class:`TurnstileStream` — a concrete, replayable sequence of updates
    together with the frequency vector it induces; also
    :class:`FrequencyVector`, an incremental accumulator used by exact
    oracles and tests.
``generators``
    Synthetic workload generators for every experiment
    (``benchmarks/bench_e*.py``):
    Zipfian and uniform frequency vectors, planted heavy hitters, signed
    turnstile workloads with cancellations, Gaussian hard-distribution
    instances, and forget-request query sets.
"""

from repro.streams.updates import StreamKind, Update
from repro.streams.stream import FrequencyVector, TurnstileStream
from repro.streams.generators import (
    WorkloadSpec,
    zipfian_frequency_vector,
    uniform_frequency_vector,
    planted_heavy_hitter_vector,
    gaussian_vector,
    stream_from_vector,
    turnstile_stream_with_cancellations,
    insertion_only_stream,
    random_query_set,
    forget_request_set,
)
from repro.streams.workloads import (
    bursty_traffic_stream,
    distributed_shard_streams,
    sliding_window_stream,
)

__all__ = [
    "Update",
    "StreamKind",
    "TurnstileStream",
    "FrequencyVector",
    "WorkloadSpec",
    "zipfian_frequency_vector",
    "uniform_frequency_vector",
    "planted_heavy_hitter_vector",
    "gaussian_vector",
    "stream_from_vector",
    "turnstile_stream_with_cancellations",
    "insertion_only_stream",
    "random_query_set",
    "forget_request_set",
    "bursty_traffic_stream",
    "sliding_window_stream",
    "distributed_shard_streams",
]
