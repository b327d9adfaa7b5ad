import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def sf01_dir():
    return "/root/testdata/sf0.01"


def requires_reference(*paths: str):
    """Skip marker for a test that reads fixtures from a checkout of the
    reference implementation (Anserini): the test is skipped only when one
    of the exact fixture paths it reads is missing, and the reason names
    that path."""
    missing = [p for p in paths if not os.path.exists(p)]
    return pytest.mark.skipif(
        bool(missing),
        reason=f"reference fixture missing: {missing[0]}" if missing else "",
    )
