"""CON005 fixture: metadata builder drifted from its reference twin.

The naive reference below is no longer an ordered prefix of the
optimized signature.
"""


def build_metadata_candidates(state, now, pairs):
    return [(state, now, pair) for pair in pairs]


def build_metadata_candidates_reference(state, extra):
    return [(state, extra)]
