import tracemalloc

import numpy as np
import pytest

from mvsgru import tensor as T
from mvsgru.scenes import SynthSpec, synth_scene


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def fixed_sample():
    """The 64 px sample the tape counts are quoted on: reference 0, sources 1 and 2."""
    return synth_scene(SynthSpec(seed=5, views=5, size=64))


@pytest.fixture(autouse=True)
def _reset_dtype():
    """Tests that flip the global numeric mode must not leak it."""
    yield
    T.set_default_dtype(np.float32)


@pytest.fixture(autouse=True)
def _empty_tape_stack():
    """Tests must leave no slot on the tape stack: a leaked ``no_grad``
    slot would turn recording off for every later test, and a leaked tape
    would record their ops."""
    yield
    leaked = list(T._TAPES)
    T._TAPES.clear()
    assert not leaked, f"the test left {leaked} on the tape stack"


@pytest.fixture
def traced():
    """Traced memory of one call: ``run(fn) -> (result, held, peak)``.

    ``held`` and ``peak`` are tracemalloc bytes since the call began: those
    still allocated when ``fn()`` returned, its result included, and the
    most at any point of the call.
    """
    def run(fn):
        tracemalloc.start()
        try:
            out = fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, held, peak

    return run


@pytest.fixture
def step_peaks():
    """Traced peaks of one taped step: ``run(forward) -> (forward, step)``.

    ``forward()`` is recorded on a fresh tape and must return the scalar
    loss, which is then back-propagated.  Both peaks are tracemalloc bytes
    since the step began: after the forward, and over forward + backward.
    """
    def run(forward):
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                loss = forward()
            forward_peak = tracemalloc.get_traced_memory()[1]
            T.backward(tape, loss)
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return forward_peak, step_peak

    return run
