"""Tests for the HBM bandwidth model and traffic meter."""

import pytest

from repro.core import FabConfig, HbmModel, TrafficMeter


class TestHbmModel:
    @pytest.fixture(scope="class")
    def hbm(self):
        return HbmModel(FabConfig())

    def test_peak_bandwidth_460gbs(self, hbm):
        """32 ports x 256 b x 450 MHz = 460.8 GB/s (§5.1)."""
        assert hbm.peak_bandwidth == pytest.approx(460.8e9)

    def test_effective_below_peak(self, hbm):
        assert hbm.effective_bandwidth < hbm.peak_bandwidth

    def test_capacity_8gb(self, hbm):
        assert hbm.capacity_bytes == 8 << 30

    def test_transfer_time_scales_linearly(self, hbm):
        t1 = hbm.transfer_seconds(1 << 20)
        t2 = hbm.transfer_seconds(2 << 20)
        assert t2 == pytest.approx(2 * t1)

    def test_fewer_ports_slower(self, hbm):
        full = hbm.transfer_seconds(1 << 20, ports=32)
        half = hbm.transfer_seconds(1 << 20, ports=16)
        assert half == pytest.approx(2 * full)

    def test_zero_bytes_free(self, hbm):
        assert hbm.transfer_seconds(0) == 0.0
        assert hbm.transfer_cycles(0) == 0

    def test_latency_included_once(self, hbm):
        base = hbm.transfer_cycles(1 << 20)
        with_lat = hbm.transfer_cycles(1 << 20, include_latency=True)
        assert with_lat == base + 300

    def test_invalid_ports(self, hbm):
        with pytest.raises(ValueError):
            hbm.transfer_seconds(1024, ports=33)

    def test_limb_transfer_reasonable(self, hbm):
        # One 0.44 MB limb over the full HBM at ~390 GB/s: ~1.1 us.
        cycles = hbm.limb_transfer_cycles()
        assert 200 < cycles < 1000

    def test_key_block_fetch_hides_behind_compute(self, hbm):
        """Key-block fetch must be smaller than per-digit compute, so
        prefetch can hide it (the §4.6 claim)."""
        from repro.core import NttDatapath
        fetch = hbm.key_block_transfer_cycles()
        per_digit_compute = 24 * NttDatapath(hbm.config).limb_cycles()
        assert fetch < per_digit_compute


class TestTrafficMeter:
    def test_accumulates(self):
        meter = TrafficMeter()
        meter.read("key", 100)
        meter.write("ct", 50)
        assert meter.bytes_read == 100
        assert meter.bytes_written == 50
        assert meter.total_bytes == 150

    def test_merge(self):
        a, b = TrafficMeter(), TrafficMeter()
        a.read("x", 10)
        b.write("y", 20)
        a.merge(b)
        assert a.total_bytes == 30
        assert len(a.transfers) == 2

