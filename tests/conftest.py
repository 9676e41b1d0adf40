"""Shared pytest configuration."""

from hypothesis import settings

#: CI's fuzz budget: ``--hypothesis-profile=fuzz`` raises every property
#: that does not pin its own ``max_examples`` from 100 to 2,000 examples.
settings.register_profile("fuzz", max_examples=2000)
