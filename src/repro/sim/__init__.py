"""From-scratch discrete-event simulation kernel.

Public surface: :class:`Environment` (clock + event queue), generator
processes, :class:`Resource`/:class:`Semaphore` for counted servers,
:class:`FifoServer` for fixed-duration FIFO servers,
:class:`Store`/:class:`FilterStore` mailboxes, deterministic RNG streams,
measurement monitors, and the hierarchical :class:`MetricsRegistry`.
"""

from .core import Condition, Environment, Event, Process, Timeout
from .metrics import NULL_METRICS, MetricsError, MetricsRegistry, NullMetricsRegistry
from .monitor import (
    Counter,
    Distribution,
    Gauge,
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
)
from .resources import FifoServer, Request, Resource, Semaphore
from .rng import RngRegistry, RngStream
from .store import FilterStore, Store

__all__ = [
    "Condition",
    "Counter",
    "Distribution",
    "Environment",
    "Event",
    "FifoServer",
    "FilterStore",
    "Gauge",
    "LatencyRecorder",
    "MetricsError",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "Process",
    "Request",
    "Resource",
    "RngRegistry",
    "RngStream",
    "Semaphore",
    "Store",
    "ThroughputMeter",
    "TimeSeries",
    "Timeout",
]
