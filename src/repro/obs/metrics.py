"""Process-wide metrics registry: labeled counters, gauges, histograms.

Every runtime decision the resilient pipeline makes — a retry, a worker
kill, a breaker trip, a quarantined record — currently leaves only a log
line behind. A :class:`MetricsRegistry` turns those decisions into
*numbers* that a chaos drill can assert exactly and a flight report can
tabulate:

>>> registry = MetricsRegistry()
>>> trips = registry.counter(
...     "breaker_transitions_total", "breaker state changes", ("to_state",)
... )
>>> trips.inc(to_state="open")
>>> registry.value("breaker_transitions_total", to_state="open")
1

Design constraints, in priority order:

* **zero cost when disabled** — the module-level default registry is a
  :class:`NullRegistry` whose metric handles are shared no-op singletons,
  so instrumented hot paths pay one attribute call and nothing else;
* **deterministic** — exposition sorts families and label sets, histogram
  buckets are fixed at creation, and the only timestamp (the snapshot
  stamp) comes from an injectable clock, so two identical runs export
  byte-identical ``metrics.json``;
* **dependency-free** — this module imports only the standard library, so
  every layer of the codebase (including :mod:`repro.store.atomic`) can
  instrument itself without import cycles.

Exposition formats: Prometheus text (``render_prometheus``) and a JSON
snapshot (``snapshot``/``to_json``) that round-trips through
:func:`prometheus_from_snapshot` so the CLI can re-render persisted
artifacts without the live registry.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

TYPE_COUNTER = "counter"
TYPE_GAUGE = "gauge"
TYPE_HISTOGRAM = "histogram"

#: Default histogram buckets (seconds): spans stage timings from a
#: sub-millisecond cache hit to a multi-minute paper-scale stage.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0
)


def _label_key(
    names: Tuple[str, ...], values: Dict[str, Any]
) -> Tuple[str, ...]:
    if set(values) != set(names):
        raise ValueError(
            f"expected labels {names}, got {tuple(sorted(values))}"
        )
    return tuple(str(values[name]) for name in names)


class Counter:
    """Monotonically increasing value, optionally labeled."""

    kind = TYPE_COUNTER

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...],
                 lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._lock = lock
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0)

    def _series(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in items
        ]


class Gauge(Counter):
    """A value that can go up and down (e.g. queue depth, breaker state)."""

    kind = TYPE_GAUGE

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Histogram:
    """Fixed-bucket histogram (cumulative buckets, Prometheus-style)."""

    kind = TYPE_HISTOGRAM

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...],
                 buckets: Sequence[float], lock: threading.Lock) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.help = help
        self.label_names = label_names
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = lock
        # label key -> [per-bucket counts..., +Inf count, sum]
        self._state: Dict[Tuple[str, ...], List[float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            state = self._state.get(key)
            if state is None:
                state = [0.0] * (len(self.buckets) + 1) + [0.0]
                self._state[key] = state
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    state[index] += 1
            state[len(self.buckets)] += 1  # +Inf
            state[-1] += value  # sum

    def count(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            state = self._state.get(key)
            return state[len(self.buckets)] if state else 0

    def sum(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            state = self._state.get(key)
            return state[-1] if state else 0.0

    def _series(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(
                (key, list(state)) for key, state in self._state.items()
            )
        out = []
        for key, state in items:
            out.append({
                "labels": dict(zip(self.label_names, key)),
                "buckets": dict(
                    zip([str(b) for b in self.buckets], state)
                ),
                "count": state[len(self.buckets)],
                "sum": state[-1],
            })
        return out


class _NullMetric:
    """Shared no-op handle: the disabled-telemetry fast path."""

    def inc(self, amount: float = 1, **labels: Any) -> None:
        pass

    def dec(self, amount: float = 1, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0

    def count(self, **labels: Any) -> float:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Named metric families sharing one lock and one injectable clock."""

    enabled = True

    def __init__(self, clock: Any = time.time) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._families: Dict[str, Any] = {}

    def _register(self, cls, name: str, help: str,
                  labels: Sequence[str], **kwargs) -> Any:
        label_names = tuple(labels)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (existing.kind != cls.kind
                        or existing.label_names != label_names):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.label_names}"
                    )
                return existing
            family = cls(name, help, label_names,
                         lock=threading.Lock(), **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=buckets)

    # -- reading ---------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """Current value of one counter/gauge series (0 when absent)."""
        with self._lock:
            family = self._families.get(name)
        if family is None:
            return 0
        return family.value(**labels)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready snapshot: deterministic given the injected clock."""
        with self._lock:
            families = sorted(self._families.items())
        return {
            "snapshot_ts": round(self._clock(), 3),
            "metrics": {
                name: {
                    "type": family.kind,
                    "help": family.help,
                    "label_names": list(family.label_names),
                    "series": family._series(),
                }
                for name, family in families
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    def render_prometheus(self) -> str:
        return prometheus_from_snapshot(self.snapshot())


class NullRegistry:
    """The default: accepts every registration, records nothing."""

    enabled = False

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> _NullMetric:
        return _NULL_METRIC

    gauge = counter

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> _NullMetric:
        return _NULL_METRIC

    def value(self, name: str, **labels: Any) -> float:
        return 0

    def snapshot(self) -> Dict[str, Any]:
        return {"snapshot_ts": 0.0, "metrics": {}}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    def render_prometheus(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()

#: Process-wide registry; stays the null registry unless telemetry is
#: explicitly enabled (CLI ``--metrics``, or :func:`set_registry` in tests).
_registry: Any = NULL_REGISTRY


def get_registry() -> Any:
    """The process-wide registry (a :class:`NullRegistry` by default)."""
    return _registry


def set_registry(registry: Optional[Any]) -> Any:
    """Install (or with ``None`` reset) the process-wide registry."""
    global _registry
    _registry = registry if registry is not None else NULL_REGISTRY
    return _registry


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    # HELP lines escape only backslash and newline — double quotes stay
    # literal (the exposition format quotes label values, not help text).
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label(str(value))}"'
        for name, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


def prometheus_from_snapshot(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text.

    Works equally on a live snapshot and on a ``metrics.json`` loaded back
    from a run directory, which is how ``python -m repro metrics`` serves
    the Prometheus view of a finished run.
    """
    lines: List[str] = []
    for name in sorted(snapshot.get("metrics", {})):
        family = snapshot["metrics"][name]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['type']}")
        for series in family.get("series", []):
            labels = series.get("labels", {})
            if family["type"] == TYPE_HISTOGRAM:
                for bound, count in series["buckets"].items():
                    le = 'le="%s"' % bound
                    lines.append(
                        f"{name}_bucket{_render_labels(labels, le)} "
                        f"{_format_value(count)}"
                    )
                inf = 'le="+Inf"'
                lines.append(
                    f"{name}_bucket{_render_labels(labels, inf)} "
                    f"{_format_value(series['count'])}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} "
                    f"{_format_value(series['count'])}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} "
                    f"{_format_value(series['sum'])}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{_format_value(series['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "DEFAULT_BUCKETS",
    "TYPE_COUNTER",
    "TYPE_GAUGE",
    "TYPE_HISTOGRAM",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "get_registry",
    "prometheus_from_snapshot",
    "set_registry",
]
