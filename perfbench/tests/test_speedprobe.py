"""Tests of the machine-speed probe (about a second)."""

import math
import signal

import pytest

import speedprobe


def test_kernel_work_rescales_to_the_reference_time_per_call():
    # work that is the kernel itself runs at the kernel's speed in every
    # phase, so at the reference speed each call takes REFERENCE_S
    before = signal.getsignal(signal.SIGPROF)
    calls = 0
    with speedprobe.SpeedProbe() as probe:
        start = probe.mark()
        while len(probe.took) < 50:
            speedprobe.kernel()
            calls += 1
        cpu, ref = probe.rescaled(start)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert 0.0 < cpu
    assert ref == pytest.approx(calls * speedprobe.REFERENCE_S, rel=0.25)


def test_stretch_without_a_sample_is_scaled_by_the_one_before_it():
    with speedprobe.SpeedProbe() as probe:
        cpu, ref = probe.rescaled(probe.mark())
    assert math.isfinite(ref) and ref >= 0.0
