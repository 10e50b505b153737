"""Tests for chip assembly and energy accounting."""

import numpy as np
import pytest

from repro.platform.presets import CONF1_STREAMING, build_chip
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def chip(sim):
    return build_chip(lambda: sim.now, 3, CONF1_STREAMING, sim=sim)


class TestTopology:
    def test_block_count(self, chip):
        assert chip.n_blocks == 13      # 3 tiles x 4 blocks + shared mem
        assert chip.n_tiles == 3

    def test_block_names_unique_and_indexed(self, chip):
        names = [b.name for b in chip.blocks]
        assert len(set(names)) == len(names)
        for i, b in enumerate(chip.blocks):
            assert chip.block_index(b.name) == i

    def test_core_block_indices_in_tile_order(self, chip):
        idx = chip.core_block_indices()
        assert [chip.blocks[i].name for i in idx] == \
            ["core0", "core1", "core2"]

    def test_initial_state(self, chip):
        for tile in chip.tiles:
            assert not tile.active
            assert not tile.gated
            assert tile.opp == tile.opp_table.max_point

    def test_initial_temps_at_ambient(self, chip):
        assert np.allclose(chip.temps_c, chip.ambient_c)


class TestPowerState:
    def test_active_raises_core_power(self, chip):
        i = chip.block_index("core0")
        idle = chip.current_power_w()[i]
        chip.set_tile_active(0, True)
        busy = chip.current_power_w()[i]
        assert busy > idle

    def test_gating_cuts_power(self, chip):
        i = chip.block_index("core0")
        chip.set_tile_active(0, True)
        busy = chip.current_power_w()[i]
        chip.set_tile_gated(0, True)
        gated = chip.current_power_w()[i]
        assert gated < 0.1 * busy

    def test_lower_opp_reduces_power(self, chip):
        i = chip.block_index("core1")
        chip.set_tile_active(1, True)
        hi = chip.current_power_w()[i]
        low_opp = chip.tile(1).opp_table.min_point
        chip.set_tile_opp(1, low_opp)
        lo = chip.current_power_w()[i]
        assert lo < hi / 3

    def test_temperature_feedback_raises_leakage(self, chip):
        i = chip.block_index("core0")
        p_cold = chip.current_power_w()[i]
        temps = chip.temps_c + 40.0
        chip.update_temperatures(temps)
        p_hot = chip.current_power_w()[i]
        assert p_hot > p_cold

    def test_cache_power_follows_core_activity(self, chip):
        i = chip.block_index("dcache0")
        idle = chip.current_power_w()[i]
        chip.set_tile_active(0, True)
        busy = chip.current_power_w()[i]
        assert busy > idle

    def test_wrong_temperature_vector_rejected(self, chip):
        with pytest.raises(ValueError):
            chip.update_temperatures(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_temperature_rejected(self, chip, bad):
        chip.set_tile_active(0, True)
        before = (chip.current_power_w(), chip.temps_c.copy())
        temps = chip.temps_c + 10.0
        temps[chip.block_index("dcache1")] = bad
        temps[chip.block_index("core2")] = np.nan
        with pytest.raises(ValueError, match="'dcache1'"):
            chip.update_temperatures(temps)
        # Rejected before any state moved.
        assert np.array_equal(chip.current_power_w(), before[0])
        assert np.array_equal(chip.temps_c, before[1])


class TestEnergyAccounting:
    def test_average_power_of_constant_state(self, sim, chip):
        chip.set_tile_active(0, True)
        chip.drain_average_power()          # reset the accumulator
        sim.run_until(1.0)
        avg = chip.drain_average_power()
        assert avg[chip.block_index("core0")] == pytest.approx(
            chip.current_power_w()[chip.block_index("core0")])

    def test_duty_cycle_averages_exactly(self, sim, chip):
        """50% busy time must yield the exact midpoint power."""
        i = chip.block_index("core0")
        chip.set_tile_active(0, False)
        p_idle = chip.current_power_w()[i]
        chip.set_tile_active(0, True)
        p_busy = chip.current_power_w()[i]
        chip.set_tile_active(0, False)
        chip.drain_average_power()

        # Toggle every 0.1 s for 1 s starting from idle.
        for k in range(10):
            sim.schedule(0.1 * k, chip.set_tile_active, 0, k % 2 == 0)
        sim.run_until(1.0)
        avg = chip.drain_average_power()
        assert avg[i] == pytest.approx((p_idle + p_busy) / 2, rel=1e-6)

    def test_drain_resets_accumulator(self, sim, chip):
        chip.set_tile_active(0, True)
        sim.run_until(0.5)
        chip.drain_average_power()
        assert chip.total_energy_j() == pytest.approx(0.0, abs=1e-12)

    def test_drain_with_no_elapsed_time_returns_current(self, chip):
        avg = chip.drain_average_power()
        assert np.allclose(avg, chip.current_power_w())

    def test_idempotent_state_changes_do_not_disturb(self, sim, chip):
        chip.set_tile_active(0, True)
        chip.drain_average_power()
        sim.run_until(0.3)
        chip.set_tile_active(0, True)     # no-op
        sim.run_until(0.7)
        avg = chip.drain_average_power()
        i = chip.block_index("core0")
        assert avg[i] == pytest.approx(chip.current_power_w()[i])


class TestValidation:
    def test_build_requires_sim(self):
        with pytest.raises(ValueError):
            build_chip(lambda: 0.0, 3, CONF1_STREAMING, sim=None)

    def test_two_tile_chip(self, sim):
        chip = build_chip(lambda: sim.now, 2, CONF1_STREAMING, sim=sim)
        assert chip.n_tiles == 2
        assert chip.n_blocks == 9
