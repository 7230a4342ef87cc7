"""Split-time prediction for middle distance triathlons.

Predicts per-discipline intermediate times (swim, T1, bike, T2, run) for a
target overall finish time by running a bound-constrained particle swarm
optimizer whose objective rewards plans that preserve the inter-discipline
correlation structure of an archive of real race results.  The root
exports only ``__version__``; import the API from the submodules.
"""

__version__ = "0.1.0"
