"""Monotone submodular maximization under matroid constraints.

Library layout:

- ``core``        weight discretization, shared oracle vocabulary
- ``objectives``  coverage / facility-location / additive set functions
- ``kernels``     batched numpy evaluation kernels (coverage, facility)
- ``sampler``     weight-class bucket sampling over the maintained basis
- ``laminar``     dynamic max-weight basis under a laminar family
- ``graphic``     dynamic max-weight forest with contractions
- ``transversal`` stable bipartite matchings, static and decremental
- ``optimizer``   the two-phase algorithm and its threshold subroutines
- ``rounding``    swap rounding of fractional solutions
- ``oracles``     exact brute-force optimum for small instances
- ``instances``   problem descriptions, generation, (de)serialization
- ``cli``         ``matsub gen | run | verify``
"""

from __future__ import annotations

__version__ = "0.1.0"
