"""Unit tests for the keyword vocabulary and wire messages."""

from __future__ import annotations

from repro.catalog.keywords import (
    PUBLISHERS,
    KeywordVocabulary,
    all_vocabulary_tokens,
    tokenize,
)
from repro.net.messages import (
    HELLO_INTERVAL,
    HelloMessage,
    MetadataMessage,
    PieceMessage,
)
from repro.types import NodeId, Uri

from conftest import make_metadata


class TestKeywordVocabulary:
    def test_deterministic_per_seed(self):
        a = KeywordVocabulary(seed=3)
        b = KeywordVocabulary(seed=3)
        assert [a.title_tokens(i) for i in range(10)] == [
            b.title_tokens(i) for i in range(10)
        ]

    def test_title_has_unique_episode_tag(self):
        vocab = KeywordVocabulary(seed=0)
        tags = {vocab.title_tokens(i)[-1] for i in range(50)}
        assert len(tags) == 50

    def test_title_tokens_structure(self):
        vocab = KeywordVocabulary(seed=0)
        tokens = vocab.title_tokens(0)
        assert len(tokens) == 4
        assert tokens[-1].startswith("s01e")

    def test_publisher_from_known_set(self):
        vocab = KeywordVocabulary(seed=0)
        for __ in range(20):
            assert vocab.publisher() in PUBLISHERS

    def test_query_tokens_include_tag(self):
        vocab = KeywordVocabulary(seed=0)
        title = vocab.title_tokens(7)
        query = vocab.query_tokens_for(title)
        assert title[-1] in query
        assert query <= frozenset(title)
        assert 2 <= len(query) <= 3

    def test_description_mentions_publisher(self):
        vocab = KeywordVocabulary(seed=0)
        title = vocab.title_tokens(0)
        assert "FOX" in vocab.description(title, "fox")

    def test_tokenize(self):
        assert tokenize("News Island  s01e01") == {"news", "island", "s01e01"}
        assert tokenize("") == frozenset()

    def test_vocabulary_token_list_sorted_unique(self):
        tokens = all_vocabulary_tokens()
        assert tokens == sorted(set(tokens))
        assert "news" in tokens


class TestMessages:
    def test_hello_interval_at_least_every_second(self):
        assert HELLO_INTERVAL <= 1.0

    def test_hello_size_grows_with_content(self):
        small = HelloMessage(
            sender=NodeId(1),
            heard=frozenset(),
            query_tokens=(),
            downloading=frozenset(),
            sent_at=0.0,
        )
        big = HelloMessage(
            sender=NodeId(1),
            heard=frozenset({NodeId(2), NodeId(3)}),
            query_tokens=(frozenset({"a", "b"}),),
            downloading=frozenset({Uri("dtn://fox/x")}),
            sent_at=0.0,
        )
        assert big.size_bytes > small.size_bytes

    def test_metadata_message_size_scales_with_checksums(self, registry):
        one = MetadataMessage(NodeId(1), make_metadata(registry, num_pieces=1), 0.0)
        many = MetadataMessage(NodeId(1), make_metadata(registry, num_pieces=10), 0.0)
        assert many.size_bytes == one.size_bytes + 9 * 20

    def test_piece_message_carries_attachment_cost(self, registry):
        record = make_metadata(registry)
        bare = PieceMessage(NodeId(1), record.uri, 0, b"x", "00", 0.0, attached=None)
        attached = PieceMessage(NodeId(1), record.uri, 0, b"x", "00", 0.0, attached=record)
        assert attached.size_bytes > bare.size_bytes
        assert bare.size_bytes >= 256 * 1024
