"""Deterministic keyword vocabulary for file names and queries.

File discovery in the paper is a *keyword search* over metadata
(§I, §III-B): users type query strings and the discovery process
returns matching metadata. To exercise that code path with realistic
structure, every generated file gets a name composed of tokens drawn
from a fixed media-flavoured vocabulary; queries are token subsets.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Sequence, Tuple

#: Publishers from the paper's motivating example (§III-B) plus filler.
PUBLISHERS: Tuple[str, ...] = (
    "fox",
    "abc",
    "nbc",
    "cbs",
    "bbc",
    "cnn",
    "espn",
    "mtv",
)

_GENRES: Tuple[str, ...] = (
    "news", "drama", "comedy", "sports", "music", "documentary",
    "talkshow", "anime", "thriller", "reality", "sitcom", "science",
)
_SUBJECTS: Tuple[str, ...] = (
    "island", "city", "campus", "ocean", "desert", "mountain",
    "election", "finals", "league", "galaxy", "market", "jungle",
    "harbor", "festival", "orchestra", "robot", "dynasty", "frontier",
)
_QUALIFIERS: Tuple[str, ...] = (
    "live", "special", "finale", "premiere", "classic", "extended",
    "remastered", "uncut", "highlights", "recap", "pilot", "bonus",
)


class KeywordVocabulary:
    """Deterministic generator of file names, descriptions and queries.

    All sampling goes through a private :class:`random.Random`, so a
    given seed reproduces the same catalog every run.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed ^ 0x5EEDC0DE)

    def publisher(self) -> str:
        """Pick a publisher name."""
        return self._rng.choice(PUBLISHERS)

    def title_tokens(self, episode: int) -> Tuple[str, ...]:
        """Compose the tokenized title of a new file.

        Titles look like ``("sports", "harbor", "finale", "s03e07")`` —
        a genre, a subject, a qualifier and an episode tag. The episode
        tag makes every title unique; the leading tokens deliberately
        collide across files so that keyword queries can match several
        metadata (the "similar names" problem of §I).
        """
        genre = self._rng.choice(_GENRES)
        subject = self._rng.choice(_SUBJECTS)
        qualifier = self._rng.choice(_QUALIFIERS)
        season = 1 + episode // 24
        tag = f"s{season:02d}e{episode % 24 + 1:02d}"
        return (genre, subject, qualifier, tag)

    def description(self, title_tokens: Sequence[str], publisher: str) -> str:
        """Produce a short advertisement-style description."""
        pretty = " ".join(t.capitalize() for t in title_tokens[:-1])
        return f"{pretty} ({title_tokens[-1]}) — presented by {publisher.upper()}."

    def query_tokens_for(self, title_tokens: Sequence[str]) -> FrozenSet[str]:
        """Build the query a user would type to find this file.

        Users rarely type the full exact title; we model a query as the
        unique episode tag plus one or two of the descriptive tokens.
        The tag guarantees the query matches its target file, while the
        extra tokens exercise multi-token subset matching.
        """
        extras = self._rng.sample(list(title_tokens[:-1]), self._rng.randint(1, 2))
        return frozenset([title_tokens[-1], *extras])
