"""The metrics registry: counters, gauges, histograms, Prometheus text.

One :class:`MetricsRegistry` is the numeric half of the observability
plane (:mod:`repro.obs`): named metric *families*, each holding one
sample per label combination, rendered on demand in the Prometheus
text exposition format (version 0.0.4 — what ``prometheus`` and every
text-format scraper parse).

Three family types, mirroring Prometheus semantics:

* :class:`Counter` — monotone tally (``inc``; ``set_to`` mirrors an
  external monotone tally such as the result-cache hit count);
* :class:`Gauge` — instantaneous value (``set`` / ``inc`` / ``get``);
* :class:`Histogram` — cumulative buckets plus sum and count
  (``observe``).

Everything is thread-safe: service workers fold finished jobs while
scrape requests render, so each family guards its samples with the
registry's lock.  Rendering is wait-free for the workers' hot path
apart from that lock — there is no per-sample allocation on the
increment path (samples live in a plain dict keyed by label values).

>>> reg = MetricsRegistry()
>>> jobs = reg.counter("repro_jobs_total", "Finished jobs.", ("status",))
>>> jobs.inc(status="done")
>>> print(reg.render().strip())
# HELP repro_jobs_total Finished jobs.
# TYPE repro_jobs_total counter
repro_jobs_total{status="done"} 1
"""

from __future__ import annotations

import math
import re
import sys
import threading
from collections.abc import Callable
from typing import Any, TypeVar, cast

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CONTENT_TYPE",
]

#: the Content-Type the text exposition format is served under.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram buckets — spans the microsecond-to-minutes range
#: enumeration levels and jobs actually land in.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)


_FLOAT_MAX = sys.float_info.max


def _format_value(value: float) -> str:
    """A sample value in exposition form (ints without the ``.0``; an
    int past the float range, such as a memory-model cap, as +Inf)."""
    if value > _FLOAT_MAX:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _format_labels(names: tuple[str, ...], values: tuple) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


class _Family:
    """Shared base: name, help text, label schema, sample storage."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labels: tuple[str, ...],
        lock: Any,  # any lock-like context manager (threading.RLock())
    ) -> None:
        if not _NAME_RE.match(name):
            raise ParameterError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ParameterError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self._lock = lock
        self._samples: dict[tuple, float] = {}

    def _key(self, label_values: dict[str, object]) -> tuple[str, ...]:
        if set(label_values) != set(self.labels):
            raise ParameterError(
                f"metric {self.name!r} takes labels "
                f"{', '.join(self.labels) or '(none)'}, got "
                f"{', '.join(sorted(label_values)) or '(none)'}"
            )
        return tuple(str(label_values[n]) for n in self.labels)

    def get(self, **label_values: object) -> float:
        """Current value of one sample (0 when never touched)."""
        key = self._key(label_values)
        with self._lock:
            return self._samples.get(key, 0)

    def samples(self) -> dict[tuple, float]:
        """Snapshot of every (label values) -> value sample."""
        with self._lock:
            return dict(self._samples)

    def _render(self, lines: list[str]) -> None:
        lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key in sorted(self._samples):
            lines.append(
                f"{self.name}{_format_labels(self.labels, key)} "
                f"{_format_value(self._samples[key])}"
            )


_F = TypeVar("_F", bound=_Family)


class Counter(_Family):
    """Monotonically increasing tally."""

    kind = "counter"

    def inc(self, amount: float = 1, **label_values: object) -> None:
        """Add ``amount`` (must be >= 0) to one sample."""
        if amount < 0:
            raise ParameterError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        key = self._key(label_values)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def set_to(self, value: float, **label_values: object) -> None:
        """Mirror an external monotone tally (e.g. cache hit counts).

        Moves the sample forward to ``value``; a value below the
        current sample raises, keeping the counter honest.
        """
        key = self._key(label_values)
        with self._lock:
            current = self._samples.get(key, 0)
            if value < current:
                raise ParameterError(
                    f"counter {self.name!r} cannot move backwards "
                    f"({current} -> {value})"
                )
            self._samples[key] = value


class Gauge(_Family):
    """Instantaneous value that may move either way."""

    kind = "gauge"

    def set(self, value: float, **label_values: object) -> None:
        """Set one sample to ``value``."""
        with self._lock:
            self._samples[self._key(label_values)] = value

    def inc(self, amount: float = 1, **label_values: object) -> None:
        """Add ``amount`` (either sign) to one sample."""
        key = self._key(label_values)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def set_max(self, value: float, **label_values: object) -> None:
        """Raise one sample to ``value`` if it is below it (high-water)."""
        key = self._key(label_values)
        with self._lock:
            if value > self._samples.get(key, 0):
                self._samples[key] = value


class Histogram(_Family):
    """Cumulative histogram: per-bucket counts plus ``_sum``/``_count``.

    Buckets are upper bounds; the implicit ``+Inf`` bucket is always
    present.  Rendered the Prometheus way — every bucket counts *all*
    observations at or below its bound.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: tuple[str, ...],
        lock: Any,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ParameterError(
                f"histogram {name!r} needs at least one bucket bound"
            )
        self.buckets = bounds
        # per label key: [bucket counts..., +Inf count], sum
        self._counts: dict[tuple, list[int]] = {}
        self._sums: dict[tuple, float] = {}

    def observe(self, value: float, **label_values: object) -> None:
        """Record one observation."""
        key = self._key(label_values)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            counts[-1] += 1
            self._sums[key] += value
            # keep the base-class sample map as the observation count so
            # `get`/`samples` mean something uniform across family types
            self._samples[key] = counts[-1]

    def _render(self, lines: list[str]) -> None:
        lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key in sorted(self._counts):
            counts = self._counts[key]
            for bound, count in zip(self.buckets, counts):
                labels = _format_labels(
                    self.labels + ("le",), key + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{labels} {count}")
            inf_labels = _format_labels(
                self.labels + ("le",), key + ("+Inf",)
            )
            lines.append(f"{self.name}_bucket{inf_labels} {counts[-1]}")
            plain = _format_labels(self.labels, key)
            lines.append(
                f"{self.name}_sum{plain} {_format_value(self._sums[key])}"
            )
            lines.append(f"{self.name}_count{plain} {counts[-1]}")


class MetricsRegistry:
    """Named metric families with Prometheus text exposition.

    ``counter`` / ``gauge`` / ``histogram`` register-or-return: asking
    for an existing name with the same type and label schema returns
    the existing family (instrumented call sites never need import-time
    coordination); a conflicting redefinition raises.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(
        self,
        cls: Callable[..., _F],
        name: str,
        help: str,
        labels: tuple[str, ...],
        **kwargs: object,
    ) -> _F:
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if type(family) is not cls or family.labels != labels:
                    raise ParameterError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.labels}"
                    )
                return cast("_F", family)
            created = cls(name, help, labels, self._lock, **kwargs)
            self._families[name] = created
            return created

    def counter(
        self, name: str, help: str, labels: tuple[str, ...] = ()
    ) -> Counter:
        """Register (or fetch) a counter family."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str, labels: tuple[str, ...] = ()
    ) -> Gauge:
        """Register (or fetch) a gauge family."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a histogram family."""
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            lines: list[str] = []
            for name in sorted(self._families):
                self._families[name]._render(lines)
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict[str, dict[tuple, float]]:
        """``{name: {label values: value}}`` across every family.

        The test-facing view: an untouched registry snapshots to ``{}``
        (families may be registered, but carry no samples), which is
        exactly what the disabled-observability fast path must keep
        true.
        """
        with self._lock:
            return {
                name: fam.samples()
                for name, fam in self._families.items()
                if fam.samples()
            }
