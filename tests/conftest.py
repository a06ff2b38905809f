"""Shared test settings.

``hypothesis`` runs under one derandomized profile: the same examples on
every run, a fixed budget and no per-example deadline, so the suite stays
deterministic and its run time bounded.
"""

from hypothesis import settings

settings.register_profile("tier1", max_examples=25, derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
