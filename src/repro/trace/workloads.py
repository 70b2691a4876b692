"""The paper's Table 2: 54 multiprogrammed SMT workloads.

Workloads are grouped in six classes by thread count and composition:

* ``ILP2`` / ``ILP4`` — all threads from the high-ILP group;
* ``MEM2`` / ``MEM4`` — all threads memory-bound;
* ``MIX2`` / ``MIX4`` — half ILP, half MEM.

The benchmark tuples below are transcribed verbatim from Table 2.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError, UnknownWorkloadError
from .profiles import get_profile


@dataclasses.dataclass(frozen=True)
class Workload:
    """One multiprogrammed workload (a row of Table 2)."""

    klass: str                    # e.g. "MEM2"
    benchmarks: Tuple[str, ...]   # one entry per hardware thread

    @property
    def name(self) -> str:
        return ",".join(self.benchmarks)

    @property
    def num_threads(self) -> int:
        return len(self.benchmarks)

    def profiles(self):
        return tuple(get_profile(b) for b in self.benchmarks)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form."""
        return {"klass": self.klass, "benchmarks": list(self.benchmarks)}

    @classmethod
    def from_dict(cls, data: Dict) -> "Workload":
        return cls(klass=data["klass"],
                   benchmarks=tuple(data["benchmarks"]))

    def __str__(self) -> str:
        return f"{self.klass}({self.name})"


_TABLE2: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "ILP2": (
        ("apsi", "eon"), ("apsi", "gcc"), ("bzip2", "vortex"),
        ("fma3d", "gcc"), ("fma3d", "mesa"), ("gcc", "mgrid"),
        ("gzip", "bzip2"), ("gzip", "vortex"), ("mgrid", "galgel"),
        ("wupwise", "gcc"),
    ),
    "MIX2": (
        ("applu", "vortex"), ("art", "gzip"), ("bzip2", "mcf"),
        ("equake", "bzip2"), ("galgel", "equake"), ("lucas", "crafty"),
        ("mcf", "eon"), ("swim", "mgrid"), ("twolf", "apsi"),
        ("wupwise", "twolf"),
    ),
    "MEM2": (
        ("applu", "art"), ("art", "mcf"), ("art", "twolf"),
        ("art", "vpr"), ("equake", "swim"), ("mcf", "twolf"),
        ("parser", "mcf"), ("swim", "mcf"), ("swim", "vpr"),
        ("twolf", "swim"),
    ),
    "ILP4": (
        ("apsi", "eon", "fma3d", "gcc"),
        ("apsi", "eon", "gzip", "vortex"),
        ("apsi", "gap", "wupwise", "perl"),
        ("crafty", "fma3d", "apsi", "vortex"),
        ("fma3d", "gcc", "gzip", "vortex"),
        ("gzip", "bzip2", "eon", "gcc"),
        ("mesa", "gzip", "fma3d", "bzip2"),
        ("wupwise", "gcc", "mgrid", "galgel"),
    ),
    "MIX4": (
        ("ammp", "applu", "apsi", "eon"),
        ("art", "gap", "twolf", "crafty"),
        ("art", "mcf", "fma3d", "gcc"),
        ("gzip", "twolf", "bzip2", "mcf"),
        ("lucas", "crafty", "equake", "bzip2"),
        ("mcf", "mesa", "lucas", "gzip"),
        ("swim", "fma3d", "vpr", "bzip2"),
        ("swim", "twolf", "gzip", "vortex"),
    ),
    "MEM4": (
        ("art", "mcf", "swim", "twolf"),
        ("art", "mcf", "vpr", "swim"),
        ("art", "twolf", "equake", "mcf"),
        ("equake", "parser", "mcf", "lucas"),
        ("equake", "vpr", "applu", "twolf"),
        ("mcf", "twolf", "vpr", "parser"),
        ("parser", "applu", "swim", "twolf"),
        ("swim", "applu", "art", "mcf"),
    ),
}

#: The six workload classes in paper presentation order.
WORKLOAD_CLASSES: Tuple[str, ...] = (
    "ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4")


def workload_class_names() -> Tuple[str, ...]:
    """Class names in the order the paper's figures present them."""
    return WORKLOAD_CLASSES


def get_workloads(klass: str,
                  limit: Optional[int] = None) -> List[Workload]:
    """Workloads of one Table 2 class, optionally capped to the first
    ``limit`` (the quick-look semantics every sweep and driver shares)."""
    try:
        rows = _TABLE2[klass]
    except KeyError:
        raise UnknownWorkloadError(klass) from None
    if limit is not None:
        if limit < 1:
            raise ConfigError(f"workload limit must be >= 1, got {limit}")
        rows = rows[:limit]
    return [Workload(klass=klass, benchmarks=row) for row in rows]


def all_workloads() -> List[Workload]:
    """All 54 workloads in class order."""
    result: List[Workload] = []
    for klass in WORKLOAD_CLASSES:
        result.extend(get_workloads(klass))
    return result
