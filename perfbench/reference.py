"""A fixed reference computation that shares no code with emi.

The machine the benchmark was written on (see README) changes CPU speed
by up to ±40 % over minutes, in step for every kind of work, so two runs
of the same code minutes apart can differ by a third in wall time.  Every
time the benchmark reports is therefore a reference-scaled time: the
measured wall time, divided by the wall time of this computation run just
before it, times :data:`REFERENCE_SECONDS`.  That is the time the work
would take on a machine where the reference computation takes exactly
:data:`REFERENCE_SECONDS`.  The computation mixes what emi spends its time
on: ``decimal`` arithmetic at a working precision, small Python objects,
and ``Fraction`` sums.  It keeps nothing alive, so it does not raise the
process's peak memory.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from time import perf_counter

#: Nominal wall time of the reference computation; about its median on the
#: machine in the README.
REFERENCE_SECONDS = 0.1


class _Box:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _work() -> tuple[Decimal, Fraction]:
    ctx = Context(prec=75)
    step = ctx.divide(Decimal(1), Decimal(7))
    acc = Decimal(0)
    for i in range(1, 80000):
        acc = ctx.add(acc, _Box(ctx.multiply(step, Decimal(i))).value)
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i * i + 1)
    return acc, total


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def scaled(wall: float, reference: float) -> float:
    """``wall`` in reference-scaled seconds, given the reference time measured beside it."""
    return wall * REFERENCE_SECONDS / reference
