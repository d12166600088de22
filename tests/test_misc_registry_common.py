"""Odds and ends: app registry, experiment helpers, and departures."""

import pytest

from repro.apps import EXEMPLAR_APPS, app_by_name
from repro.experiments.common import (
    drive_events,
    format_table,
    make_controller,
    mean_by_epoch,
)
from repro.workloads.arrivals import ArrivalEvent, DepartureEvent


def test_registry_contains_the_three_exemplars():
    assert set(EXEMPLAR_APPS) == {"cache", "heavy-hitter", "load-balancer"}
    assert EXEMPLAR_APPS["cache"].elastic
    assert not EXEMPLAR_APPS["heavy-hitter"].elastic
    assert not EXEMPLAR_APPS["load-balancer"].elastic


def test_registry_programs_match_patterns():
    for spec in EXEMPLAR_APPS.values():
        program = spec.program()
        pattern = spec.pattern()
        assert pattern.program_length == len(program)
        assert tuple(program.memory_access_positions()) == pattern.lower_bounds


def test_app_by_name_errors():
    assert app_by_name("cache").name == "cache"
    with pytest.raises(KeyError):
        app_by_name("firewall")


def test_drive_events_handles_departures():
    controller = make_controller()
    events = [
        ArrivalEvent(epoch=0, fid=1, app_name="cache"),
        ArrivalEvent(epoch=1, fid=2, app_name="cache"),
        DepartureEvent(epoch=2, fid=1),
        ArrivalEvent(epoch=3, fid=3, app_name="cache"),
    ]
    run = drive_events(controller, events)
    assert run.admitted == 3
    assert run.failed == 0
    assert controller.allocator.resident_fids() == [2, 3]
    # Records exist only for arrivals.
    assert len(run.records) == 3


def test_drive_events_skips_departure_of_failed_instance():
    controller = make_controller()
    # Force failures by exhausting heavy hitters first.
    hh = EXEMPLAR_APPS["heavy-hitter"].pattern()
    fid = 100
    while controller.admit(fid=fid, pattern=hh).success:
        fid += 1
    failed_fid = 999
    events = [
        ArrivalEvent(epoch=0, fid=failed_fid, app_name="heavy-hitter"),
        DepartureEvent(epoch=1, fid=failed_fid),  # must be a no-op
        ArrivalEvent(epoch=2, fid=1000, app_name="cache"),
    ]
    run = drive_events(controller, events)
    assert run.failed == 1
    assert run.admitted == 1


def test_mean_by_epoch_aligns_runs():
    controller_a = make_controller()
    controller_b = make_controller()
    events = [ArrivalEvent(epoch=i, fid=i + 1, app_name="cache") for i in range(4)]
    run_a = drive_events(controller_a, events)
    run_b = drive_events(controller_b, events)
    means = mean_by_epoch([run_a, run_b], "utilization")
    assert len(means) == 4
    assert means == run_a.series("utilization")  # identical runs


def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 22], [333, 4]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines)


def test_format_table_empty_rows():
    text = format_table(["col"], [])
    assert "col" in text
