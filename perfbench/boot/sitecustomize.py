"""Tracing bootstrap for the benchmark's child processes.

A traced run puts this directory on the ``PYTHONPATH`` of the sampler
service and of the coordinator's workers; Python imports ``sitecustomize``
at start-up, before the child's own module runs, so the child records the
same spans as the harness and writes them out when it exits.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    from perfbench import tracing

    tracing.install_in_child()
