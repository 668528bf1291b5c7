"""The distributed-execution worker daemon, run as ``python -m repro.worker``.

The worker itself is :func:`repro.utils.coordinator.serve_worker`; this
package holds only its ``__main__`` shim (see there).
"""
