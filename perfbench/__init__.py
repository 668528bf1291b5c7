"""Benchmark of the perfect-sampler stack (see ``README.md``)."""
