"""Daily catalog generation: files, metadata and per-node queries.

Implements the workload of paper §VI-A: every day at 12:00 noon, ``n``
new files appear on the Internet with TTL ``t`` days and popularities
drawn from the truncated-exponential model with ``λ = n/2``. At the
same instant, every node generates a query for each new file with
probability equal to the file's popularity, giving ≈ 2 queries per node
per day at the paper's operating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.catalog.files import PIECE_SIZE, FileDescriptor
from repro.catalog.keywords import KeywordVocabulary
from repro.catalog.metadata import Metadata, PublisherRegistry, metadata_for_file
from repro.catalog.popularity import PopularityModel
from repro.catalog.query import Query
from repro.types import DAY, NodeId, Uri


@dataclass(frozen=True)
class CatalogConfig:
    """Workload parameters of the daily generation process."""

    files_per_day: int = 40
    ttl_days: float = 3.0
    #: Pieces per file; the paper's evaluation exchanges whole files,
    #: which corresponds to one piece per file.
    pieces_per_file: int = 1

    def __post_init__(self) -> None:
        if self.files_per_day < 1:
            raise ValueError("files_per_day must be >= 1")
        if self.ttl_days <= 0:
            raise ValueError("ttl_days must be positive")
        if self.pieces_per_file < 1:
            raise ValueError("pieces_per_file must be >= 1")

    @property
    def ttl_seconds(self) -> float:
        return self.ttl_days * DAY

    @property
    def file_size_bytes(self) -> int:
        """Size that yields exactly ``pieces_per_file`` pieces."""
        return self.pieces_per_file * PIECE_SIZE

    def popularity_model(self) -> PopularityModel:
        return PopularityModel.for_files_per_day(self.files_per_day)


@dataclass(frozen=True)
class DailyBatch:
    """Everything generated at one noon instant."""

    day: int
    descriptors: Tuple[FileDescriptor, ...]
    metadata: Tuple[Metadata, ...]
    queries: Tuple[Query, ...] = field(default=())


class CatalogGenerator:
    """Deterministic daily generator of files, metadata and queries."""

    def __init__(
        self,
        config: CatalogConfig,
        nodes: Sequence[NodeId],
        seed: int = 0,
        registry: Optional[PublisherRegistry] = None,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one node to generate queries for")
        self._config = config
        self._nodes = tuple(nodes)
        self._rng = random.Random(seed ^ 0xCA7A106)
        self._vocab = KeywordVocabulary(seed)
        self._model = config.popularity_model()
        self._registry = registry if registry is not None else PublisherRegistry(seed)
        self._episode_counter = 0

    @property
    def registry(self) -> PublisherRegistry:
        """The publisher registry used to sign generated metadata."""
        return self._registry

    def generate_day(self, day: int, noon: float) -> DailyBatch:
        """Generate the batch for zero-based ``day`` at time ``noon``."""
        descriptors: List[FileDescriptor] = []
        metadata: List[Metadata] = []
        for __ in range(self._config.files_per_day):
            descriptor = self._make_descriptor(noon)
            descriptors.append(descriptor)
            record = metadata_for_file(
                descriptor,
                description=self._vocab.description(
                    descriptor.title_tokens, descriptor.publisher
                ),
                registry=self._registry,
            )
            metadata.append(record)
        queries = tuple(self._make_queries(descriptors, noon))
        return DailyBatch(
            day=day,
            descriptors=tuple(descriptors),
            metadata=tuple(metadata),
            queries=queries,
        )

    def _make_descriptor(self, noon: float) -> FileDescriptor:
        episode = self._episode_counter
        self._episode_counter += 1
        publisher = self._vocab.publisher()
        title = self._vocab.title_tokens(episode)
        uri = Uri(f"dtn://{publisher}/f{episode:06d}")
        return FileDescriptor(
            uri=uri,
            title_tokens=title,
            publisher=publisher,
            size_bytes=self._config.file_size_bytes,
            popularity=self._model.sample(self._rng),
            created_at=noon,
            ttl=self._config.ttl_seconds,
        )

    def _make_queries(
        self, descriptors: Sequence[FileDescriptor], noon: float
    ) -> List[Query]:
        """Each node queries each new file w.p. the file's popularity.

        One draw per (file, node) pair, files outer and nodes inner: the
        draw sequence fixes which queries exist, so it must not change.
        """
        draw = self._rng.random
        nodes = self._nodes
        query_tokens_for = self._vocab.query_tokens_for
        queries: List[Query] = []
        for descriptor in descriptors:
            tokens = query_tokens_for(descriptor.title_tokens)
            popularity = descriptor.popularity
            askers = [node for node in nodes if draw() < popularity]
            if askers:
                uri = descriptor.uri
                expires_at = descriptor.expires_at
                queries.extend(
                    Query(node, tokens, uri, noon, expires_at) for node in askers
                )
        return queries
