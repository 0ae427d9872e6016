"""Streaming submodular maximization testbed.

Adversarial instance families for cardinality and partition-matroid
constraints, weak-oracle single-pass branching algorithms with a
value-guessing driver, oracle access policies with space accounting,
and an experiment/verification harness.
"""

from .branching import CardTree, GuessDriver, GuessGrid, MatroidTree, to_fraction
from .errors import (GroundSetTooLarge, IncompatibleDistribution, InvalidParams,
                     PolicyViolation, StreamsubError, UnknownElement)
from .matroids import (ExplicitMatroid, Matroid, PartitionMatroid, UniformMatroid,
                       check_axioms)
from .oracles import (AccessPolicy, ElementStorePolicy, OracleAudit, QueryGate,
                      Residual, SetFunction, StrongPolicy, WeakPolicy, additive,
                      verify_monotone_submodular)

__version__ = "0.1.0"
