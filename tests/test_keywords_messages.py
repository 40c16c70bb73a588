"""Unit tests for the keyword vocabulary."""

from __future__ import annotations

from repro.catalog.keywords import PUBLISHERS, KeywordVocabulary


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
