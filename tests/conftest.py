"""Hypothesis profiles, registered here so that --hypothesis-profile finds them.

csv-wide: tests/test_csvout.py's float property at 100 times the example count
it runs with in tier-1 (hypothesis's default), for a wide check of the
formatter:

    PYTHONPATH=src python -m pytest -q tests/test_csvout.py --hypothesis-profile csv-wide
"""

from hypothesis import settings

settings.register_profile("csv-wide", max_examples=100 * settings.default.max_examples)
