"""Exception types shared across the package."""

from typing import Callable


class TaupolyError(Exception):
    """Base class for all package-specific errors."""


class UsageError(TaupolyError):
    """Malformed user input (bad diagram string, vertex or flag
    combination), or an input over the oracle or engine budget."""


# Every brute-force oracle visits at most this many elements.
ORACLE_BUDGET = 10**7


def check_oracle_budget(what: str, elements: int, at_least: bool = False) -> None:
    """Refuse, with the estimate, an oracle over ``ORACLE_BUDGET`` elements;
    ``at_least`` marks the estimate as a lower bound.  An estimate of more
    than 60 digits is given as the power of ten it exceeds, read off its
    bit length (log10 2 > 0.3010299), so no huge integer is printed."""
    if elements <= ORACLE_BUDGET:
        return
    if elements < 10**60:
        count = f"at least {elements:,}" if at_least else f"{elements:,}"
    else:
        count = f"more than 10^{(elements.bit_length() - 1) * 3010299 // 10**7}"
    raise UsageError(
        f"{what} visits {count} elements, over the oracle budget of {ORACLE_BUDGET:,}"
    )


# The engine refuses, before any work, a diagram of rank n with n^4 over
# this.  n^4 bounds its coefficient products (about n^4 / 24 for A_n and
# n^4 / 12 for D_n, of integers up to ~n log2 n bits).  Every rank up to
# 200 is admitted; the preprojective D200 d-polynomial takes about a minute.
ENGINE_BUDGET = 200**4


class ConsistencyError(TaupolyError):
    """Internal consistency failure: a result the code relies on did not hold.

    Never caused by user input, and unreachable for the algebras in
    scope; the run aborts instead of reporting a number built on it.
    """


def exact_quotient(numerator: int, denominator: int, what: Callable[[], str]) -> int:
    """numerator / denominator; ``ConsistencyError`` unless the division
    is exact, naming the quotient by ``what()``, which is called only
    then (the engine divides on every vertex)."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ConsistencyError(f"{what()}: {numerator} is not divisible by {denominator}")
    return quotient
