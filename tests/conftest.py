import pytest

from kp2.localization import build_context
from kp2.mirror import mirror_data


@pytest.fixture(scope="session")
def mirror12():
    return mirror_data(12)


@pytest.fixture(scope="session")
def ctx1():
    """Context with rows to k = 7, for tests that call vertex, edge and leg
    factors directly; correlators on it need no deeper rows."""
    ctx = build_context()
    ctx.extend_rows(7)
    return ctx


@pytest.fixture(scope="session")
def ctx2():
    """Context whose rows each correlator extends to 3g - 3 + n."""
    return build_context()
