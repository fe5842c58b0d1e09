"""Shared test settings.

Every hypothesis suite draws the same examples on every run: the profile
below seeds each test's generator from the test itself (``derandomize``,
which also turns off the example database), so a pass or a failure repeats.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
