"""Perfect ``L_2`` sampler (re-export module).

Algorithms 1-3 of the paper consume *perfect ``L_2`` samples* as their basic
primitive (Theorem 1.10 with ``p = 2``).  The implementation lives in
:mod:`repro.samplers.jw18_lp_sampler`, since the ``p = 2`` sampler is the
special case of the general ``p in (0, 2]`` construction; this module
re-exports it under the name the rest of the library uses.
"""

from repro.samplers.jw18_lp_sampler import JW18LpSampler, PerfectL2Sampler

__all__ = ["PerfectL2Sampler", "JW18LpSampler"]
