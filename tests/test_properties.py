"""Property tests: contracts that must hold over the whole accepted domain.

Examples are derandomized and capped, so every run tests the same inputs
and the file stays fast.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_section_fraction
from zpbox import UsageError, minimize_oracle
from zpbox.cli import _time_step

_FIXED = settings(derandomize=True, database=None, deadline=None)

positive_floats = st.floats(
    min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False
)


@settings(_FIXED, max_examples=60)
@given(K=positive_floats)
def test_minimize_oracle_equals_the_fraction_golden_section(K):
    assert minimize_oracle(K) == golden_section_fraction(K)


@settings(_FIXED, max_examples=200)
@given(
    K=positive_floats,
    mu=positive_floats,
    dt_factor=st.floats(min_value=math.pi, max_value=1e6, exclude_min=True),
)
def test_time_step_is_finite_and_positive_or_a_usage_error(K, mu, dt_factor):
    try:
        _, _, dt = _time_step(K, mu, dt_factor)
    except UsageError:
        return
    assert 0.0 < dt < math.inf
