"""Exception types shared across the package.

All domain errors derive from :class:`GrowthcertError` so callers can catch
one base class.  Input/validation problems additionally derive from
``ValueError`` and iteration failures from ``RuntimeError``, which keeps the
types usable with plain ``except ValueError`` idioms.
"""

from __future__ import annotations


class GrowthcertError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(GrowthcertError, ValueError):
    """Tensor shapes disagree with the state/action label counts."""


class NotStochastic(GrowthcertError, ValueError):
    """A transition-kernel row deviates from unit sum beyond tolerance.

    ``violations`` lists the offending ``(state, action)`` index pairs.
    """

    def __init__(self, message: str, violations=None):
        super().__init__(message)
        self.violations = [tuple(v) for v in (violations or [])]


class DanglingVertex(GrowthcertError, ValueError):
    """A graph vertex has out-degree zero in some action graph."""


class NonpositiveWealthFactor(GrowthcertError, ValueError):
    """A portfolio wealth bracket is not strictly positive."""


class ZeroDenominator(GrowthcertError, ValueError):
    """A normalizing sum that must be positive evaluated to zero."""


class CertainExit(GrowthcertError, ValueError):
    """Some (state, action) leaves the retained state set with probability 1."""


class ParseError(GrowthcertError, ValueError):
    """A model/policy/vector file is not well-formed JSON."""


class SchemaError(GrowthcertError, ValueError):
    """A JSON document parsed but does not match the expected schema."""


class NonpositiveF(GrowthcertError, ValueError):
    """A test vector required to be strictly positive has an entry <= 0."""


class NotDistribution(GrowthcertError, ValueError):
    """A vector required to be a probability distribution is not one."""


class ReducibleGain(GrowthcertError, ValueError):
    """The gain graph is not strongly connected or has a dead state; both routes refuse it."""


class TooManyPolicies(GrowthcertError, ValueError):
    """Deterministic policy enumeration would exceed the stated cap."""


class NotConverged(GrowthcertError, RuntimeError):
    """An operation requires a converged eigensolution but got a stale one."""


class RowSumViolation(GrowthcertError, RuntimeError):
    """Rows of a derived transition kernel fail to sum to one."""


class SingularChain(GrowthcertError, RuntimeError):
    """A chain's stationary distribution could not be determined uniquely."""


class ZeroGainRow(GrowthcertError, ValueError):
    """A (state, action) pair has an all-zero gain row where positivity is needed."""


class NoConvergence(GrowthcertError, RuntimeError):
    """An iterative solver exhausted its budget before meeting tolerance.

    Carries whatever partial progress is available so callers can still
    report it: ``iterations``, ``bracket`` and, when applicable, a partial
    ``solution`` (eigensolver) or ``certificate`` (the variational
    maximizer's last primal/dual bracket).
    """

    def __init__(self, message: str, iterations: int = 0, bracket=None,
                 solution=None, certificate=None):
        super().__init__(message)
        self.iterations = iterations
        self.bracket = bracket
        self.solution = solution
        self.certificate = certificate
