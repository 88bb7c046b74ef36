"""Test-suite settings: hypothesis draws the same examples on every run.

The derandomized profile seeds each property test from a hash of the test
itself, so two runs of the suite check identical inputs, as the project's
reproducibility contract asks of every seeded computation.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
