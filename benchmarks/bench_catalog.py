"""Catalog-scale benchmark: the ranked-view server vs sort-per-call.

Drives a million-file / ten-thousand-node campaign: a catalog of
``--files`` metadata records is generated in parallel chunks (worker
processes synthesize the per-chunk popularity columns, the parent
materializes the records), then two servers run the same daily
Internet-side op mix the simulator produces at that scale:

* one publish batch per day (fresh records, staggered expiries),
* one ``expire`` tick (heap-served on both servers),
* one ``internet sync`` per access node — a ranked keyword ``search``
  plus two ``top_popular`` calls (push distribution + popular-file
  seeding).

The measured server is :class:`~repro.catalog.server.MetadataServer`,
whose ``top_popular`` walks a cached popularity-ranked view. The
reference is :class:`SortingMetadataServer`, defined here: the same
server with ``top_popular`` replaced by the filter-and-sort code that
re-sorts the whole catalog on every call. The reference cannot run the
full sync schedule at 10^6 files in benchmark time (thousands of
multi-second sorts), so it runs a deterministic sample of the syncs
and its wall clock is extrapolated per-sync; the ranked server runs
every sync for real. The headline number is publish+search throughput
(ops/s over the whole campaign), gated at ≥ ``SPEEDUP_TARGET``
ranked-over-reference::

    PYTHONPATH=src python benchmarks/bench_catalog.py --min-speedup 5.0 \
        [--files 1000000 --nodes 10000]

Before any server is timed, a scripted equivalence check builds both
servers from the generated catalog and asserts they return identical
results on the first sampled day — the
throughput comparison is only meaningful between observably identical
implementations (the hypothesis property test in
``tests/test_catalog_server.py`` pins the general case against a
brute-force reference).
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from array import array
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.catalog.metadata import Metadata
from repro.catalog.server import MetadataServer
from repro.perf import PerfRecorder
from repro.types import DAY, Uri

#: The acceptance bar: ranked-view publish+search throughput over the
#: sort-per-call reference.
SPEEDUP_TARGET = 5.0

#: Full campaign scale (the ROADMAP's million-file north star) ...
FULL_FILES = 1_000_000
FULL_NODES = 10_000

#: ... and the reduced CI smoke scale. Files shrink 100x; the node
#: count (which only sets the daily sync volume) stays at the full
#: campaign's, so the op mix keeps its shape and the smoke clears the
#: same throughput gate.
SMOKE_FILES = 10_000
SMOKE_NODES = 10_000

#: Fraction of nodes with Internet access (paper default), each doing
#: one sync per simulated day.
ACCESS_FRACTION = 0.3

#: Campaign days measured (after the catalog build).
CAMPAIGN_DAYS = 2

#: Syncs the reference server actually runs per day (extrapolated up).
REFERENCE_SYNC_SAMPLE = 12

#: Search vocabulary periods: names are "bench fileA tagB groupC".
_TAGS = 31
_GROUPS = 101
_FILES_MOD = 977

#: Record lifetime; publish days are staggered so a slice of the
#: catalog is live (and some postings dead) at measurement time.
TTL_DAYS = 3.0
PUBLISH_SPREAD_DAYS = 8


class SortingMetadataServer(MetadataServer):
    """Reference: ``top_popular`` filters and sorts the catalog per call."""

    def top_popular(
        self,
        now: float,
        limit: int,
        exclude: FrozenSet[Uri] = frozenset(),
    ) -> List[Metadata]:
        hits = [
            md
            for uri, md in self._records.items()
            if md.is_live(now) and uri not in exclude
        ]
        hits.sort(key=lambda md: (-md.popularity, md.uri))
        return hits[:limit]


def _pop_chunk(task: Tuple[int, int, int]) -> Tuple[int, array]:
    """Worker: deterministic popularity column for one record chunk."""
    import random

    start, count, seed = task
    rng = random.Random(seed * 1_000_003 + start)
    return start, array("d", (rng.random() for __ in range(count)))


def _record_name(index: int) -> str:
    return (
        f"bench file{index % _FILES_MOD} tag{index % _TAGS} "
        f"group{index % _GROUPS}"
    )


def build_records(
    num_files: int, seed: int = 0, procs: Optional[int] = None
) -> List[Metadata]:
    """Generate the campaign catalog in parallel chunks.

    Popularity columns are synthesized in ``procs`` worker processes
    (one chunk per worker slot, compact ``array('d')`` payloads — the
    only per-record field that is not a pure function of the index);
    the parent materializes the records. Unsigned on purpose: the
    servers never verify, and signing 10^6 records would measure HMAC,
    not the catalog.
    """
    if procs is None:
        procs = min(8, os.cpu_count() or 1)
    chunk = -(-num_files // max(1, procs))
    tasks = [
        (start, min(chunk, num_files - start), seed)
        for start in range(0, num_files, chunk)
    ]
    if len(tasks) > 1:
        with multiprocessing.Pool(len(tasks)) as pool:
            columns = dict(pool.map(_pop_chunk, tasks))
    else:
        columns = dict(_pop_chunk(task) for task in tasks)
    records: List[Metadata] = []
    for start, pops in sorted(columns.items()):
        for offset, popularity in enumerate(pops):
            index = start + offset
            created_at = float(index % PUBLISH_SPREAD_DAYS) * DAY
            records.append(
                Metadata(
                    uri=Uri(f"dtn://bench/f{index:07d}"),
                    name=_record_name(index),
                    publisher="bench",
                    description="",
                    checksums=("0" * 40,),
                    size_bytes=1,
                    created_at=created_at,
                    ttl=TTL_DAYS * DAY,
                    popularity=popularity,
                )
            )
    return records


def _sync_ops(server, now: float, sync_index: int) -> None:
    """One access node's Internet sync: a search + two top_popular."""
    tokens = frozenset({f"tag{sync_index % _TAGS}", f"group{sync_index % _GROUPS}"})
    server.search(tokens, now, limit=5)
    exclude = frozenset({Uri(f"dtn://bench/f{sync_index % 997:07d}")})
    server.top_popular(now, 10, exclude=exclude)
    server.top_popular(now, 2)


def _campaign_days(num_files: int) -> List[float]:
    """Measured day instants: the first days after the build window."""
    return [
        (PUBLISH_SPREAD_DAYS + day) * DAY for day in range(1, CAMPAIGN_DAYS + 1)
    ]


def _fresh_batch(num_files: int, day: float, seed: int = 1) -> List[Metadata]:
    """The publish batch of one campaign day (0.1% of the catalog)."""
    import random

    rng = random.Random(seed + int(day))
    count = max(10, num_files // 1000)
    base = num_files + int(day // DAY) * count
    return [
        Metadata(
            uri=Uri(f"dtn://bench/f{base + i:07d}"),
            name=_record_name(base + i),
            publisher="bench",
            description="",
            checksums=("0" * 40,),
            size_bytes=1,
            created_at=day,
            ttl=TTL_DAYS * DAY,
            popularity=rng.random(),
        )
        for i in range(count)
    ]


def _check_equivalence(records: List[Metadata], now: float) -> None:
    """Scripted identity check, on untimed servers, before any timing."""
    reference = SortingMetadataServer()
    ranked = MetadataServer()
    for record in records:
        reference.publish(record)
        ranked.publish(record)
    probes = [
        frozenset({"tag3"}),
        frozenset({"tag5", "group7"}),
        frozenset({"absent"}),
    ]
    for tokens in probes:
        if reference.search(tokens, now, limit=20) != ranked.search(tokens, now, limit=20):
            raise RuntimeError(f"ranked search diverged from the reference for {tokens}")
    exclude = frozenset({Uri("dtn://bench/f0000003")})
    for limit, skip in ((25, frozenset()), (10, exclude), (0, frozenset())):
        if reference.top_popular(now, limit, skip) != ranked.top_popular(now, limit, skip):
            raise RuntimeError("ranked top_popular diverged from the reference")


def _run_campaign(
    server, num_files: int, syncs_per_day: int, sync_sample: Optional[int]
) -> Tuple[float, float]:
    """(wall seconds, op count) for the daily op mix.

    ``sync_sample`` runs only that many syncs per day and extrapolates
    the sync term linearly (the reference server); ``None`` runs the
    full schedule.
    """
    wall = 0.0
    ops = 0.0
    for day in _campaign_days(num_files):
        batch = _fresh_batch(num_files, day)
        t0 = time.perf_counter()
        for record in batch:
            server.publish(record)
        server.expire(day)
        wall += time.perf_counter() - t0
        ops += len(batch) + 1
        run_syncs = syncs_per_day if sync_sample is None else min(sync_sample, syncs_per_day)
        t0 = time.perf_counter()
        for sync_index in range(run_syncs):
            _sync_ops(server, day, sync_index)
        sync_wall = time.perf_counter() - t0
        if run_syncs and run_syncs < syncs_per_day:
            sync_wall *= syncs_per_day / run_syncs
        wall += sync_wall
        ops += 3 * syncs_per_day
    return wall, ops


def measure_catalog(
    num_files: int = FULL_FILES,
    num_nodes: int = FULL_NODES,
    procs: Optional[int] = None,
) -> Dict[str, Any]:
    """Build both servers, run the campaign, return the comparison."""
    syncs_per_day = max(REFERENCE_SYNC_SAMPLE, int(num_nodes * ACCESS_FRACTION))
    out: Dict[str, Any] = {
        "files": num_files,
        "nodes": num_nodes,
        "syncs_per_day": syncs_per_day,
        "campaign_days": CAMPAIGN_DAYS,
        "reference_sync_sample": REFERENCE_SYNC_SAMPLE,
    }

    t0 = time.perf_counter()
    records = build_records(num_files, procs=procs)
    out["generate_wall_s"] = round(time.perf_counter() - t0, 4)

    _check_equivalence(records, _campaign_days(num_files)[0])

    perf = PerfRecorder()
    ranked = MetadataServer(perf=perf)
    t0 = time.perf_counter()
    for record in records:
        ranked.publish(record)
    ranked_publish_s = time.perf_counter() - t0

    reference = SortingMetadataServer()
    t0 = time.perf_counter()
    for record in records:
        reference.publish(record)
    reference_publish_s = time.perf_counter() - t0
    del records

    # Each campaign mutates its own server's state (publishes,
    # expiries); the day batches are deterministic, so both servers
    # see the same state evolution.
    reference_wall, reference_ops = _run_campaign(
        reference, num_files, syncs_per_day, sync_sample=REFERENCE_SYNC_SAMPLE
    )
    ranked_wall, ranked_ops = _run_campaign(
        ranked, num_files, syncs_per_day, sync_sample=None
    )
    assert reference_ops == ranked_ops

    reference_total = reference_publish_s + reference_wall
    ranked_total = ranked_publish_s + ranked_wall
    total_ops = num_files + reference_ops
    out["reference_publish_s"] = round(reference_publish_s, 4)
    out["ranked_publish_s"] = round(ranked_publish_s, 4)
    out["reference_campaign_s"] = round(reference_wall, 4)
    out["ranked_campaign_s"] = round(ranked_wall, 4)
    out["reference_ops_per_s"] = round(total_ops / reference_total, 1)
    out["ranked_ops_per_s"] = round(total_ops / ranked_total, 1)
    out["speedup"] = (
        round(reference_total / ranked_total, 2) if ranked_total > 0 else float("inf")
    )
    out["perf_counters"] = {
        key: value
        for key, value in sorted(perf.as_counters().items())
        if key.startswith("perf.catalog.")
    }
    return out


def _report(m: Dict[str, Any]) -> None:
    print(
        f"catalog: {m['files']} files / {m['nodes']} nodes "
        f"({m['syncs_per_day']} syncs/day), "
        f"generated in {m['generate_wall_s']:.1f}s; "
        f"sort-per-call {m['reference_ops_per_s']:.0f} ops/s "
        f"(publish {m['reference_publish_s']:.2f}s + campaign "
        f"{m['reference_campaign_s']:.1f}s extrapolated), "
        f"ranked view {m['ranked_ops_per_s']:.0f} ops/s "
        f"(publish {m['ranked_publish_s']:.2f}s + campaign "
        f"{m['ranked_campaign_s']:.2f}s) -> {m['speedup']:.1f}x"
    )


def test_catalog_smoke(benchmark):
    measurement = benchmark.pedantic(
        lambda: measure_catalog(SMOKE_FILES, SMOKE_NODES), rounds=1, iterations=1
    )
    print()
    _report(measurement)
    # Equivalence raised inside measure_catalog if violated; the timing
    # floor is lenient under pytest (shared boxes jitter) — the
    # scripted CI gate enforces the real target.
    assert measurement["speedup"] >= 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", type=int, default=FULL_FILES)
    parser.add_argument("--nodes", type=int, default=FULL_NODES)
    parser.add_argument("--procs", type=int, default=None,
                        help="worker processes for catalog generation")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=SPEEDUP_TARGET,
        help=f"fail below this ranked-over-reference throughput ratio "
             f"(default {SPEEDUP_TARGET})",
    )
    args = parser.parse_args(argv)
    measurement = measure_catalog(args.files, args.nodes, args.procs)
    _report(measurement)
    if measurement["speedup"] < args.min_speedup:
        print(
            f"::error title=catalog ranked-view regression::throughput ratio "
            f"{measurement['speedup']:.2f}x below the "
            f"{args.min_speedup:.2f}x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
