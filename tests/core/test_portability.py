"""Tests for smaller-FPGA portability (§4.6)."""

from repro.core import (
    FabConfig,
    KeySwitchDatapath,
    OnChipMemory,
    alveo_u50_config,
    smallest_viable_config,
)


class TestPortability:
    def test_u280_geometry_preserved(self):
        """The generalized bank model reproduces the paper's layout."""
        mem = OnChipMemory(FabConfig())
        assert mem.uram_banks["uram_c0_a"].capacity_limbs == 16
        assert mem.bram_banks["bram_c0"].capacity_limbs == 8
        assert mem.bram_banks["bram_misc"].capacity_limbs == 4
        assert mem.total_uram_blocks == 960

    def test_u50_cannot_hold_raised_ciphertext(self):
        """Half the memory: the raised ciphertext no longer fits, so a
        U50 port needs the finer-grained slot-wise scheduling the paper
        sketches."""
        mem = OnChipMemory(alveo_u50_config())
        assert not mem.fits_raised_ciphertext()
        assert mem.fits_minimum_porting_requirement()

    def test_tiny_fpga_rejected(self):
        """Below one key limb + one ct limb: the port is infeasible."""
        mem = OnChipMemory(smallest_viable_config())
        assert not mem.fits_minimum_porting_requirement()

    def test_u50_keyswitch_still_schedules(self):
        """The datapath model runs on the smaller device (slower)."""
        u280 = KeySwitchDatapath(FabConfig()).report()
        u50 = KeySwitchDatapath(alveo_u50_config()).report()
        assert u50.cycles > u280.cycles  # 128 FUs vs 256

    def test_u50_modified_datapath_does_not_fit(self):
        """The U280 allocation plan overflows the U50's banks."""
        assert KeySwitchDatapath(FabConfig()).onchip_feasible()
        assert not KeySwitchDatapath(alveo_u50_config()).onchip_feasible()
