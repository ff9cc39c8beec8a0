"""Hypothesis profiles for the test suite.

`HYPOTHESIS_PROFILE=ci` loads the `ci` profile: examples are derived from
each test's code rather than drawn at random, so a failing property test in
CI fails the same way on any machine, and the failure prints the blob that
`@reproduce_failure` replays.  `HYPOTHESIS_PROFILE=fuzz` is the same with
3000 examples for each property that sets no count of its own, for the
standing CLI fuzz (tests/test_cli_fuzz.py).
Without hypothesis installed this file does nothing, and only the modules
that import hypothesis fail to collect.
"""

import os

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
    settings.register_profile("fuzz", parent=settings.get_profile("ci"), max_examples=3000)
    if os.environ.get("HYPOTHESIS_PROFILE"):
        settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
