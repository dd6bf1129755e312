import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))

# Hypothesis budgets: tier-1 runs Hypothesis's defaults. Setting
# HYPOTHESIS_PROFILE=deep gives every test that does not pin its own
# max_examples twenty times the examples. Some CI jobs run pytest
# without Hypothesis installed, so the profile is registered only when
# it is there.
try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - only in jobs without Hypothesis
    pass
else:
    settings.register_profile("deep", max_examples=2000)
    if os.environ.get("HYPOTHESIS_PROFILE"):
        settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
