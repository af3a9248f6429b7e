"""Shared test settings: every hypothesis property test runs derandomized,
without a deadline and without an example database, so tier-1 runs are
deterministic.  Hypothesis still writes a .hypothesis/ directory: every
run caches the constants it collects from the sources under
.hypothesis/constants/, and a failing test writes its patch under
.hypothesis/patches/.  The directory is git-ignored."""

from hypothesis import settings

settings.register_profile("tiledflow", derandomize=True, deadline=None, database=None)
settings.load_profile("tiledflow")
