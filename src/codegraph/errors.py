"""Shared exception types."""


class ParameterError(ValueError):
    """Parameters outside the supported desk-scale range."""


class Falsified(RuntimeError):
    """A certified claim failed on correct inputs.

    Raised only when a check that the test suite treats as a theorem
    witness fails; carries a human-readable description of the
    counterexample.
    """
