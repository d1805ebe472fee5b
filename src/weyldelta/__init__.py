"""Numerical verification toolkit for the delta-method / Voronoi /
stationary-phase machinery behind GL(2) L-function estimates.

Submodules:

* :mod:`weyldelta.specialfn` - complex log-gamma, archimedean factor ratios,
  high-frequency phase profiles
* :mod:`weyldelta.testfn`    - smooth compactly supported windows
* :mod:`weyldelta.oscillate` - adaptive oscillatory quadrature on an interval
* :mod:`weyldelta.statphase` - the twisted Mellin transform, by direct
  quadrature and by its stationary-phase expansion
* :mod:`weyldelta.forms`     - cusp-form coefficient providers
* :mod:`weyldelta.voronoi`   - dual summation formula, two-sided checks
* :mod:`weyldelta.deltapipe` - delta-method identities and the dual-sum
  pipeline
* :mod:`weyldelta.lfunc`     - approximate functional equation, growth scan
* :mod:`weyldelta.checks`    - the checks `weyl-delta verify` and the
  acceptance gate share
* :mod:`weyldelta.cli`       - experiment harness (`weyl-delta`)
"""

__version__ = "0.1.0"
