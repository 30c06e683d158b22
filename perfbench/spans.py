"""Spans recorded from the benchmark around calls into codegraph.

The untraced runs use ``NULL``, whose methods call straight through, so
the end-to-end figures carry no timing code beyond one function call per
operation.  A ``Tracer`` keeps, per name, the number of calls and the
seconds spent inside them, plus free-form counters; a pass run under it
produces the per-layer metrics.  Spans are aggregated in memory rather
than stored one by one, because the certificate's call chain makes
about 400 thousand of them.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class NullTracer:
    def call(self, name: str, fn: Callable[..., T], *args, **kwargs) -> T:
        return fn(*args, **kwargs)

    def iterate(self, name: str, iterable: Iterable[T]) -> Iterable[T]:
        return iterable

    def count(self, name: str, amount: int = 1) -> None:
        pass


NULL = NullTracer()


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn: Callable[..., T], *args, **kwargs) -> T:
        """Time one call into the program under ``name`` and count it
        as ``name.calls``."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += perf_counter() - t0
            self.counts[name + ".calls"] += 1

    def iterate(self, name: str, iterable: Iterable[T]) -> Iterator[T]:
        """Time only the program's side of a generator: the work done
        to produce each item, counted as ``name.yielded``."""
        it = iter(iterable)
        while True:
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self.seconds[name] += perf_counter() - t0
                return
            self.seconds[name] += perf_counter() - t0
            self.counts[name + ".yielded"] += 1
            yield item

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def as_dict(self) -> dict:
        return {"seconds": dict(sorted(self.seconds.items())), "counts": dict(sorted(self.counts.items()))}
