import hypothesis
import pytest

from gapsandwich import parallel

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every thread pool map_chunks starts."""
    sizes = []

    class Recording(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Recording)
    return sizes
