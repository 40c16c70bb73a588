"""Internet-side substrate: files, metadata, popularity, queries, servers.

In the paper's hybrid-DTN model (§III), files are produced by known
publishers on the Internet; each file has a *metadata* record carrying
its name, publisher, description, URI, per-piece checksums and
authentication information. Metadata live on a central metadata server
that supports keyword search and tracks popularity; files live on file
servers. This package implements all of it.
"""

from repro.catalog.adversary import FakeBatch, FakeFileFactory
from repro.catalog.expiry import ExpiryHeap
from repro.catalog.files import (
    PIECE_SIZE,
    FileDescriptor,
    PieceStore,
    piece_checksums,
    piece_payload,
)
from repro.catalog.generator import CatalogConfig, CatalogGenerator, DailyBatch
from repro.catalog.keywords import KeywordVocabulary
from repro.catalog.metadata import Metadata, PublisherRegistry, sign_metadata, verify_metadata
from repro.catalog.popularity import PopularityModel, PopularityTracker, sample_popularity
from repro.catalog.query import Query, matches
from repro.catalog.server import FileServer, MetadataServer

__all__ = [
    "FakeBatch",
    "FakeFileFactory",
    "ExpiryHeap",
    "CatalogConfig",
    "CatalogGenerator",
    "DailyBatch",
    "PIECE_SIZE",
    "FileDescriptor",
    "PieceStore",
    "piece_checksums",
    "piece_payload",
    "KeywordVocabulary",
    "Metadata",
    "PublisherRegistry",
    "sign_metadata",
    "verify_metadata",
    "PopularityModel",
    "PopularityTracker",
    "sample_popularity",
    "Query",
    "matches",
    "FileServer",
    "MetadataServer",
]
