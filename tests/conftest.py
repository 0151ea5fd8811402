"""One hypothesis profile for every property test: derandomized, so each run
draws the same examples, and without a deadline, so a slow host cannot fail
an example that a fast one passes."""

from hypothesis import settings

settings.register_profile("srr", derandomize=True, deadline=None)
settings.load_profile("srr")
