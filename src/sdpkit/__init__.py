"""Average-cost stochastic dynamic programming on rectangular grids.

Library layout:

- :mod:`sdpkit.grids`: uniform rectangular grids, multilinear
  interpolation, grid-function persistence;
- :mod:`sdpkit.solver`: relative value iteration, policy evaluation
  and policy iteration for average-cost problems;
- :mod:`sdpkit.armodel`: AR(p) fitting, simulation and closed-form
  moments for the exogenous disturbance;
- :mod:`sdpkit.storage`: the energy-storage power-smoothing
  application built on the three modules above;
- :mod:`sdpkit.cli`: the ``sdpkit`` command-line pipeline.

The package root re-exports nothing: import the module you use, as in
``from sdpkit import solver``.
"""

__version__ = "0.1.0"
