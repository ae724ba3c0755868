"""The machine-speed gauge: normalisation and the busy-thread guard.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference  # noqa: E402


def test_normalised_scales_by_the_nearby_reference_median():
    nominal = reference.NOMINAL_S
    # a machine twice as slow doubles both times: the normalised time holds
    assert reference.normalised([2.0], [2 * nominal]) == pytest.approx([1.0])
    # one slow reference among five does not move the gauge
    refs = [nominal, nominal, 5 * nominal, nominal, nominal]
    assert reference.normalised([1.0] * 5, refs) == pytest.approx([1.0] * 5)
    with pytest.raises(ValueError):
        reference.normalised([1.0, 1.0], [nominal])


def test_reference_refuses_to_gauge_beside_a_busy_thread():
    assert reference.reference_work() > 0.0
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    busy = threading.Thread(target=spin)
    busy.start()
    try:
        with pytest.raises(RuntimeError, match="other threads used"):
            reference.reference_work()
    finally:
        stop.set()
        busy.join()
    release = threading.Event()
    idle = threading.Thread(target=release.wait)  # alive, but uses no CPU
    idle.start()
    try:
        assert reference.reference_work() > 0.0
    finally:
        release.set()
        idle.join()
