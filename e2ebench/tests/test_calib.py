"""Times are scaled to reference speed by the reference times around them."""

import pytest

import calib


def test_a_steady_host_scales_by_ref_s_over_its_reference_time():
    refs = [2 * calib.REF_S] * 4
    assert calib.normalized([0.1, 0.2, 0.3], refs) == pytest.approx([0.05, 0.1, 0.15])


def test_each_latency_is_scaled_by_the_two_reference_times_around_it():
    refs = [1.0, 1.0, 3.0, 3.0]
    assert list(calib.factors(refs)) == pytest.approx(
        [calib.REF_S, calib.REF_S / 2.0, calib.REF_S / 3.0]
    )
    assert calib.normalized([10.0, 20.0, 30.0], refs) == pytest.approx(
        [10.0 * calib.REF_S, 10.0 * calib.REF_S, 10.0 * calib.REF_S]
    )


def test_latencies_and_reference_times_pair_up():
    with pytest.raises(ValueError):
        calib.normalized([1.0, 2.0], [1.0, 1.0])


def test_the_reference_loop_takes_milliseconds():
    assert 1e-4 < calib.reference() < 0.5
