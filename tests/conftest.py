"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` selects the one CI runs:
it prints the reproduction blob of every failing example, so the example
can be replayed locally with ``@reproduce_failure``, and sets no deadline
(shared runners time unevenly). Example counts stay those of each test."""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
