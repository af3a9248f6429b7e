"""Shared test settings: every hypothesis property test runs derandomized,
without a deadline and without an example database, so tier-1 runs are
deterministic and write no .hypothesis/ directory."""

from hypothesis import settings

settings.register_profile("tiledflow", derandomize=True, deadline=None, database=None)
settings.load_profile("tiledflow")
