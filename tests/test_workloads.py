"""Tests for the Table 2 workload definitions."""

import pytest

from repro.errors import ConfigError, UnknownWorkloadError
from repro.trace.profiles import get_profile
from repro.trace.workloads import (
    WORKLOAD_CLASSES,
    Workload,
    all_workloads,
    get_workloads,
    workload_class_names,
)


def test_six_classes_in_paper_order():
    assert workload_class_names() == (
        "ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4")


@pytest.mark.parametrize("klass,count", [
    ("ILP2", 10), ("MIX2", 10), ("MEM2", 10),
    ("ILP4", 8), ("MIX4", 8), ("MEM4", 8),
])
def test_class_sizes(klass, count):
    assert len(get_workloads(klass)) == count


def test_total_of_54_workloads():
    assert len(all_workloads()) == 54


@pytest.mark.parametrize("klass,threads", [
    ("ILP2", 2), ("MIX2", 2), ("MEM2", 2),
    ("ILP4", 4), ("MIX4", 4), ("MEM4", 4),
])
def test_thread_counts(klass, threads):
    for workload in get_workloads(klass):
        assert workload.num_threads == threads


def test_ilp_classes_contain_only_ilp_benchmarks():
    for klass in ("ILP2", "ILP4"):
        for workload in get_workloads(klass):
            for name in workload.benchmarks:
                assert not get_profile(name).is_mem, (klass, name)


def test_mem_classes_contain_only_mem_benchmarks():
    for klass in ("MEM2", "MEM4"):
        for workload in get_workloads(klass):
            for name in workload.benchmarks:
                assert get_profile(name).is_mem, (klass, name)


def test_mix_classes_are_half_mem():
    for klass, expected in (("MIX2", 1), ("MIX4", 2)):
        for workload in get_workloads(klass):
            mem_count = sum(get_profile(name).is_mem
                            for name in workload.benchmarks)
            assert mem_count == expected, workload


def test_every_benchmark_has_a_profile():
    for workload in all_workloads():
        workload.profiles()  # raises if any is missing


def test_specific_table2_rows_transcribed():
    assert Workload("ILP2", ("apsi", "eon")) in get_workloads("ILP2")
    assert Workload("MEM2", ("twolf", "swim")) in get_workloads("MEM2")
    assert Workload("MIX4", ("ammp", "applu", "apsi", "eon")) \
        in get_workloads("MIX4")
    assert Workload("MEM4", ("swim", "applu", "art", "mcf")) \
        in get_workloads("MEM4")


def test_unknown_class_raises():
    with pytest.raises(UnknownWorkloadError):
        get_workloads("MEM8")


def test_workload_name_and_str():
    workload = Workload("MEM2", ("art", "mcf"))
    assert workload.name == "art,mcf"
    assert "MEM2" in str(workload)


@pytest.mark.parametrize("limit", [-1, 0])
def test_limit_below_one_raises(limit):
    # A slice would silently drop rows from the end (-1) or leave an
    # empty class that fails later in aggregation (0).
    with pytest.raises(ConfigError):
        get_workloads("MEM2", limit)
