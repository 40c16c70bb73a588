"""Unit tests for the synthetic DieselNet and NUS trace generators."""

from __future__ import annotations

import pytest

from repro.traces.dieselnet import (
    DieselNetConfig,
    generate_dieselnet_trace,
    route_of_buses,
)
from repro.traces.nus import NUSConfig, build_schedules, classmates, generate_nus_trace
from repro.types import DAY, HOUR

import random


SMALL_DIESEL = DieselNetConfig(num_buses=12, num_days=5)
SMALL_NUS = NUSConfig(num_students=30, num_courses=6, num_days=7)


class TestDieselNetConfig:
    def test_rejects_too_few_buses(self):
        with pytest.raises(ValueError):
            DieselNetConfig(num_buses=1)

    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            DieselNetConfig(num_days=0)

    def test_rejects_bad_hub_fraction(self):
        with pytest.raises(ValueError):
            DieselNetConfig(hub_fraction=1.5)

    def test_rejects_empty_service_window(self):
        with pytest.raises(ValueError):
            DieselNetConfig(service_start_hour=10.0, service_end_hour=10.0)

    def test_service_window_seconds(self):
        config = DieselNetConfig(service_start_hour=6.0, service_end_hour=22.0)
        assert config.service_window == 16 * HOUR


class TestDieselNetTrace:
    def test_deterministic_for_seed(self):
        a = generate_dieselnet_trace(SMALL_DIESEL, seed=7)
        b = generate_dieselnet_trace(SMALL_DIESEL, seed=7)
        assert len(a) == len(b)
        assert [(c.start, c.end, c.members) for c in a] == [
            (c.start, c.end, c.members) for c in b
        ]

    def test_different_seeds_differ(self):
        a = generate_dieselnet_trace(SMALL_DIESEL, seed=1)
        b = generate_dieselnet_trace(SMALL_DIESEL, seed=2)
        assert [(c.start, c.members) for c in a] != [(c.start, c.members) for c in b]

    def test_all_contacts_pairwise(self):
        trace = generate_dieselnet_trace(SMALL_DIESEL, seed=3)
        assert all(contact.size == 2 for contact in trace)
        assert trace.stats().pairwise_fraction == 1.0

    def test_contacts_within_service_window(self):
        trace = generate_dieselnet_trace(SMALL_DIESEL, seed=3)
        for contact in trace:
            day_offset = contact.start % DAY
            assert day_offset >= SMALL_DIESEL.service_start_hour * HOUR
            assert day_offset <= SMALL_DIESEL.service_end_hour * HOUR

    def test_contact_durations_clamped(self):
        trace = generate_dieselnet_trace(SMALL_DIESEL, seed=3)
        for contact in trace:
            assert SMALL_DIESEL.min_contact_duration <= contact.duration
            assert contact.duration <= SMALL_DIESEL.max_contact_duration

    def test_population_bounded_by_config(self):
        trace = generate_dieselnet_trace(SMALL_DIESEL, seed=3)
        assert set(trace.nodes) <= set(range(SMALL_DIESEL.num_buses))

    def test_same_route_pairs_meet_more(self):
        config = DieselNetConfig(num_buses=20, num_routes=4, num_days=10)
        seed = 5
        trace = generate_dieselnet_trace(config, seed=seed)
        routes = route_of_buses(config, seed=seed)
        counts = trace.pair_contact_counts()
        same: list = []
        other: list = []
        for u in range(config.num_buses):
            for v in range(u + 1, config.num_buses):
                bucket = same if routes[u] == routes[v] else other
                bucket.append(counts.get((u, v), 0))
        assert sum(same) / len(same) > sum(other) / len(other)

    def test_route_assignment_deterministic(self):
        assert route_of_buses(SMALL_DIESEL, seed=9) == route_of_buses(SMALL_DIESEL, seed=9)

    def test_frequent_pairs_exist_at_paper_threshold(self):
        trace = generate_dieselnet_trace(DieselNetConfig(num_buses=20, num_days=10), seed=1)
        frequent = trace.frequent_pairs_by_rate(1.0 / 3.0)
        assert frequent  # some pairs meet at least every three days


class TestNUSConfig:
    def test_rejects_more_courses_than_exist(self):
        with pytest.raises(ValueError):
            NUSConfig(num_courses=3, courses_per_student=4)

    def test_rejects_bad_attendance(self):
        with pytest.raises(ValueError):
            NUSConfig(attendance_rate=-0.1)
        with pytest.raises(ValueError):
            NUSConfig(attendance_rate=1.1)

    def test_rejects_empty_teaching_window(self):
        with pytest.raises(ValueError):
            NUSConfig(first_slot_hour=10, last_slot_hour=10)


class TestNUSSchedules:
    def test_every_student_enrolls_exact_count(self):
        rng = random.Random(0)
        schedules = build_schedules(SMALL_NUS, rng)
        enrollment = {s: 0 for s in range(SMALL_NUS.num_students)}
        for course in schedules:
            for student in course.roster:
                enrollment[student] += 1
        assert all(n == SMALL_NUS.courses_per_student for n in enrollment.values())

    def test_courses_have_requested_slots(self):
        rng = random.Random(0)
        schedules = build_schedules(SMALL_NUS, rng)
        for course in schedules:
            assert len(course.slots) == SMALL_NUS.sessions_per_course_per_week
            for weekday, hour in course.slots:
                assert 0 <= weekday < SMALL_NUS.teaching_days_per_week
                assert SMALL_NUS.first_slot_hour <= hour < SMALL_NUS.last_slot_hour

    def test_classmates_symmetric(self):
        rng = random.Random(0)
        schedules = build_schedules(SMALL_NUS, rng)
        mates = classmates(schedules)
        for student, peers in mates.items():
            for peer in peers:
                assert student in mates[peer]


class TestNUSTrace:
    def test_deterministic_for_seed(self):
        a = generate_nus_trace(SMALL_NUS, seed=4)
        b = generate_nus_trace(SMALL_NUS, seed=4)
        assert [(c.start, c.members) for c in a] == [(c.start, c.members) for c in b]

    def test_contacts_are_class_sessions(self):
        trace = generate_nus_trace(SMALL_NUS, seed=4)
        for contact in trace:
            assert contact.duration == SMALL_NUS.session_duration
            hour = (contact.start % DAY) / HOUR
            assert SMALL_NUS.first_slot_hour <= hour < SMALL_NUS.last_slot_hour

    def test_no_weekend_contacts(self):
        trace = generate_nus_trace(SMALL_NUS, seed=4)
        for contact in trace:
            weekday = int(contact.start // DAY) % 7
            assert weekday < SMALL_NUS.teaching_days_per_week

    def test_cliques_larger_than_pairs_exist(self):
        trace = generate_nus_trace(SMALL_NUS, seed=4)
        assert any(contact.size > 2 for contact in trace)

    def test_zero_attendance_produces_empty_trace(self):
        config = NUSConfig(
            num_students=20, num_courses=5, num_days=5, attendance_rate=0.0
        )
        assert len(generate_nus_trace(config, seed=0)) == 0

    def test_full_attendance_contacts_match_rosters(self):
        config = NUSConfig(
            num_students=20, num_courses=5, num_days=5, attendance_rate=1.0
        )
        trace = generate_nus_trace(config, seed=0)
        rng = random.Random(0)
        schedules = build_schedules(config, rng)
        rosters = {frozenset(c.roster) for c in schedules if len(c.roster) >= 2}
        for contact in trace:
            assert contact.members in rosters

    def test_higher_attendance_more_participation(self):
        low = generate_nus_trace(
            NUSConfig(num_students=40, num_courses=8, num_days=5, attendance_rate=0.3),
            seed=2,
        )
        high = generate_nus_trace(
            NUSConfig(num_students=40, num_courses=8, num_days=5, attendance_rate=0.9),
            seed=2,
        )
        assert sum(c.size for c in high) > sum(c.size for c in low)
