import multiprocessing

import pytest

import paritysat.peephole


@pytest.fixture(autouse=True)
def empty_skeleton_store():
    """Each test starts on an empty process store of skeletons, as each
    benchmark round does in its fresh interpreter."""
    paritysat.peephole._stores.clear()


@pytest.fixture(autouse=True)
def no_process_left_running():
    """A test leaves no child process behind: a pool it opened is shut down."""
    yield
    assert multiprocessing.active_children() == []
