"""Operator splitting with relative-error inexact resolvents.

Inexact Douglas-Rachford, Chambolle-Pock and Davis-Yin iterations whose inner
solves are certified per step by a relative-error check, plus their exact
counterparts and forward baselines, problem generators, and a benchmark
harness with CSV traces.
"""

__version__ = "0.1.0"
