"""Serialization round-trips and additional property-based tests."""

from __future__ import annotations

import json
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.intercontact import intercontact_samples, summarize
from repro.catalog.popularity import PopularityModel
from repro.cli import main as cli_main
from repro.experiments.report import sweep_to_dict, sweep_to_json
from repro.experiments.sweep import SweepPoint, SweepResult
from repro.sim.metrics import MetricsCollector
from repro.sim.spacetime import earliest_arrival
from repro.traces.base import ContactTrace
from repro.types import NodeId, Uri

from conftest import make_query, pair_contact


def tiny_sweep() -> SweepResult:
    points = (
        SweepPoint(x=0.1, ratios={"mbt": (0.5, 0.4)}),
        SweepPoint(x=0.9, ratios={"mbt": (0.9, 0.8)}),
    )
    return SweepResult(
        name="demo", x_label="x", x_values=(0.1, 0.9), points=points,
        protocols=("mbt",),
    )


class TestSerialization:
    def test_result_to_dict_round_trips_through_json(self):
        metrics = MetricsCollector()
        metrics.register_query(make_query(1, "dtn://fox/a", ["a"]), False)
        metrics.on_file_complete(NodeId(1), Uri("dtn://fox/a"), 10.0)
        payload = metrics.result({"custom": 1.0}).to_dict()
        text = json.dumps(payload)
        loaded = json.loads(text)
        assert loaded["file_delivery_ratio"] == 1.0
        assert loaded["extra"]["custom"] == 1.0

    def test_sweep_to_dict_structure(self):
        payload = sweep_to_dict(tiny_sweep())
        assert payload["name"] == "demo"
        assert payload["points"][1]["ratios"]["mbt"]["file"] == 0.8

    def test_sweep_to_json_parses(self):
        loaded = json.loads(sweep_to_json(tiny_sweep()))
        assert loaded["x_values"] == [0.1, 0.9]

    def test_cli_run_json(self, capsys):
        code = cli_main(
            ["run", "--trace", "dieselnet", "--protocol", "mbt",
             "--files-per-day", "10", "--json"]
        )
        assert code == 0
        loaded = json.loads(capsys.readouterr().out)
        assert "mbt" in loaded
        assert 0.0 <= loaded["mbt"]["file_delivery_ratio"] <= 1.0


# ---------------------------------------------------------------- properties


@st.composite
def chain_traces(draw):
    """Traces built from ordered random pair contacts over few nodes."""
    n = draw(st.integers(min_value=2, max_value=6))
    count = draw(st.integers(min_value=1, max_value=15))
    contacts = []
    for __ in range(count):
        start = draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            v = (v + 1) % n
        contacts.append(pair_contact(start, start + 10.0, u, v))
    return ContactTrace(contacts)


@given(trace=chain_traces())
@settings(max_examples=50)
def test_earliest_arrival_labels_sane(trace):
    source = trace.nodes[0]
    result = earliest_arrival(trace, [source], start_time=0.0)
    assert result.arrival[source] == 0.0
    for node, at in result.arrival.items():
        # Labels never precede the query start...
        assert at >= 0.0
        # ...and non-source labels lie within some contact's interval.
        if node != source:
            assert any(
                c.start <= at < c.end and node in c.members for c in trace
            )


@given(trace=chain_traces(), later=st.floats(min_value=0.0, max_value=1e5))
@settings(max_examples=50)
def test_earliest_arrival_monotone_in_start_time(trace, later):
    source = trace.nodes[0]
    early = earliest_arrival(trace, [source], start_time=0.0)
    late = earliest_arrival(trace, [source], start_time=later)
    # Starting later can only reach fewer nodes, no earlier.
    assert set(late.arrival) <= set(early.arrival) | {source}
    for node, at in late.arrival.items():
        if node in early.arrival:
            assert at >= early.arrival[node] - 1e-9


@given(
    deadlines=st.lists(
        st.floats(min_value=0.0, max_value=2e5), min_size=2, max_size=6
    ),
    trace=chain_traces(),
)
@settings(max_examples=40)
def test_reachable_set_monotone_in_deadline(deadlines, trace):
    source = trace.nodes[0]
    result = earliest_arrival(trace, [source], start_time=0.0)
    previous: set = set()
    for deadline in sorted(deadlines):
        current = set(result.reachable_by(deadline))
        assert previous <= current
        previous = current


@given(trace=chain_traces())
@settings(max_examples=40)
def test_intercontact_samples_nonnegative_and_counted(trace):
    samples = intercontact_samples(trace)
    assert all(s >= 0.0 for s in samples)
    counts = trace.pair_contact_counts()
    expected = sum(max(0, c - 1) for c in counts.values())
    assert len(samples) == expected
    if samples:
        stats = summarize(samples)
        assert stats.count == len(samples)
        assert stats.mean >= 0.0


@given(
    files_per_day=st.integers(min_value=1, max_value=200),
    rate=st.floats(min_value=0.5, max_value=5.0),
)
def test_popularity_model_query_rate_identity(files_per_day, rate):
    model = PopularityModel.for_files_per_day(files_per_day, rate)
    assert math.isclose(model.lam, files_per_day / rate)
    # Expected queries/day = files/day × mean popularity ≈ rate for
    # large lambda; always below the nominal rate (truncation).
    expected = files_per_day * model.mean
    assert expected <= rate + 1e-9
