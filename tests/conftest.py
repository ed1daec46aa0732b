"""Shared fixtures."""

import pytest

from cosimplex.scalars import scalar

# Burau parameters: rational and complex, on and off the unit circle.
BURAU_T = {
    "2": scalar(2),
    "1_2": scalar("1/2"),
    "i": scalar(0, 1),
    "1+i": scalar(1, 1),
    "2_3-i_2": scalar("2/3", "-1/2"),
}


@pytest.fixture(params=list(BURAU_T.values()), ids=list(BURAU_T))
def burau_t(request):
    return request.param
