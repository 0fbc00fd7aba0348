"""Hypothesis draws the same examples on every run.

A fault that one draw finds then shows again in a fresh checkout, which
holds no example database.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
