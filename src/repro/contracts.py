"""Lightweight runtime contracts for the hot boundaries of the simulator.

The reprolint AST rules catch what is visible statically; this module
covers the invariants that are only checkable at run time — footprint
intersection algebra, 3DP peeling monotonicity, DDS budget accounting,
address-mapping round-trips.  Three verbs, mirroring design-by-contract:

* :func:`require` — precondition on the caller's arguments;
* :func:`ensure` — postcondition on a computed result;
* :func:`invariant` — internal consistency of an object's state.

All three raise :class:`repro.errors.ContractViolation` on failure and
are globally toggleable:

* default: enabled, unless the environment variable
  ``REPRO_CONTRACTS`` is set to ``0``/``off``/``false``;
* :func:`disable` / :func:`enable` flip checking at run time;
* :func:`disabled` is a context manager for scoped suppression (used by
  throughput benchmarks).

Zero-cost discipline: when a check's *condition itself* is expensive
(e.g. an O(n) subset test inside a Monte-Carlo loop), guard it at the
call site with :func:`enabled` so nothing is evaluated when checking is
off::

    if contracts.enabled():
        contracts.ensure(set(survivors) <= set(live), "peeling added faults")

For cheap conditions, calling ``require(cond, ...)`` directly is fine —
the message is only formatted on failure.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.errors import ContractViolation

__all__ = [
    "ContractViolation",
    "disable",
    "disabled",
    "enable",
    "enabled",
    "ensure",
    "invariant",
    "require",
]


def _env_default() -> bool:
    value = os.environ.get("REPRO_CONTRACTS", "1").strip().lower()
    return value not in ("0", "off", "false", "no")


_enabled: bool = _env_default()


def enabled() -> bool:
    """True iff contract checking is currently active."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


@contextmanager
def disabled() -> Iterator[None]:
    """Temporarily turn contract checking off (e.g. inside a benchmark)."""
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


def _fail(label: str, message: str, args: Tuple[object, ...]) -> None:
    text = message % args if args else message
    raise ContractViolation(f"{label}: {text}")


def require(condition: bool, message: str, *args: object) -> None:
    """Precondition: the caller handed us consistent inputs."""
    if _enabled and not condition:
        _fail("precondition failed", message, args)


def ensure(condition: bool, message: str, *args: object) -> None:
    """Postcondition: what we are about to return is consistent."""
    if _enabled and not condition:
        _fail("postcondition failed", message, args)


def invariant(condition: bool, message: str, *args: object) -> None:
    """Internal state consistency (budgets, tables, counters)."""
    if _enabled and not condition:
        _fail("invariant violated", message, args)


def check_non_negative(value: Optional[float], what: str) -> None:
    """Shared helper: ``value is None or value >= 0``."""
    if _enabled and value is not None and value < 0:
        _fail("precondition failed", "%s must be non-negative, got %r", (what, value))
