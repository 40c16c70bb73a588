"""CON001 fixture: unregistered counter keys in every literal form."""


def record(extra, perf):
    # A full-key literal outside the registry.
    extra["perf.nonsense_counter"] = 1
    # A recorder call whose bare name lands in an unregistered key.
    perf.count("bogus_name")
    # An f-string building keys under an unregistered prefix.
    for name in ("a", "b"):
        extra[f"faults.unregistered_{name}"] = 2
    # A registered key passes: no finding on this line.
    extra["faults.crashes"] = 0
    # A suppressed finding: the suppression machinery applies to CON rules.
    extra["perf.alien.tolerated"] = 3  # detlint: ignore[CON001] -- suppression under test
