"""The curated top-level public API: importable, stable, and honest.

``repro.__all__`` is the supported surface.  This suite asserts every
listed name resolves, the config names are present, and unknown
attributes raise a plain ``AttributeError`` — so typos do not silently
produce ``None``.
"""

from __future__ import annotations

import pytest

import repro

#: Names that must stay in the public surface forever (removal is a
#: breaking change); a deliberately non-exhaustive compatibility anchor.
CORE_SURFACE = {
    # the paper's contribution
    "PerfectLpSampler", "PerfectLpSamplerInteger", "make_perfect_lp_sampler",
    "PolynomialSampler", "CapSampler", "LogSampler", "SubsetMomentEstimator",
    # substrates
    "CountSketch", "CountMin", "AMSSketch", "PStableSketch", "FpEstimator",
    # ensembles + execution layer
    "ReplicaEnsemble", "build_ensemble", "ensemble_samples",
    "concat_ensembles", "merge_ensembles",
    "replica_sharded_ensemble", "stream_sharded_ensemble",
    # streams + snapshots + service
    "TurnstileStream", "stream_from_vector", "save_snapshot", "load_snapshot",
    "SamplerService", "spawn_service",
    # execution config
    "ExecutionConfig", "CountMinEnsemble",
}


def test_all_names_unique_and_sorted_sections() -> None:
    assert len(repro.__all__) == len(set(repro.__all__)), "duplicate exports"


def test_every_public_name_is_importable() -> None:
    missing = [name for name in repro.__all__
               if getattr(repro, name, None) is None]
    assert not missing, f"public names failed to resolve: {missing}"


def test_core_surface_is_present() -> None:
    absent = sorted(CORE_SURFACE - set(repro.__all__))
    assert not absent, f"core public names missing from __all__: {absent}"


def test_unknown_attribute_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_a_public_name  # noqa: B018


def test_module_docstring_documents_backends() -> None:
    """The execution back-ends are documented on the config."""
    assert "ExecutionConfig" in repro.__doc__
    assert 'execution="threaded"' in repro.__doc__


def test_quickstart_doctests_run() -> None:
    import doctest

    failures, _ = doctest.testmod(repro, verbose=False)
    assert failures == 0
