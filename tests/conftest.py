"""Every property test draws the same examples on every run and keeps no
example database on disk, so the suite's outcome is a function of the code."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
