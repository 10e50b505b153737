"""Bitwise oracle for the chip's power and energy accounting.

:class:`Chip` keeps tile dynamic power memoized per tile state and
recomputes leakage once per temperature update.  The reference below
does neither: it evaluates :meth:`PowerModel.power` for every block of
a tile on each tile state change, and for every block on each
temperature update, exactly the way the chip did before the split.
Random sequences of DVFS, activity, gating, bus traffic, clock advances
and temperature updates must leave both with bitwise-equal power,
drained average power and cumulative energy.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.platform.components import BlockKind
from repro.platform.presets import CONF1_STREAMING, CONF2_ARM11, build_chip
from repro.sim.kernel import Simulator

PROP_SETTINGS = dict(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class ReferenceChip:
    """Per-block ``PowerModel.power`` evaluation with energy settling.

    Mirrors a chip's tile states through its own setters, so it shares
    only the immutable blocks, the bus and the clock with the chip
    under test.
    """

    def __init__(self, chip):
        self.chip = chip
        self.clock = chip.clock
        self.state = [[t.opp, t.active, t.gated] for t in chip.tiles]
        n = chip.n_blocks
        self.temps = np.full(n, chip.ambient_c, dtype=float)
        self.power = np.zeros(n, dtype=float)
        self.energy = np.zeros(n, dtype=float)
        self.cumulative = np.zeros(n, dtype=float)
        self.last_settle = self.drain_from = self.clock()
        self._recompute_all()

    # -- state changes --------------------------------------------------
    def set_tile(self, index, field, value):
        slot = {"opp": 0, "active": 1, "gated": 2}[field]
        if self.state[index][slot] == value:
            return
        self.settle()
        self.state[index][slot] = value
        self._recompute_tile(index)

    def update_temperatures(self, temps):
        self.settle()
        self.temps = np.asarray(temps, dtype=float).copy()
        self._recompute_all()

    # -- accounting -----------------------------------------------------
    def settle(self):
        now = self.clock()
        dt = now - self.last_settle
        if dt > 0:
            step = self.power * dt
            self.energy += step
            self.cumulative += step
            self.last_settle = now

    def drain_average_power(self):
        self.settle()
        now = self.clock()
        dt = now - self.drain_from
        if dt <= 0:
            return self.power.copy()
        avg = self.energy / dt
        self.energy[:] = 0.0
        self.drain_from = now
        return avg

    def cumulative_energy_j(self):
        self.settle()
        return self.cumulative.copy()

    # -- per-block evaluation -------------------------------------------
    def _block_power(self, block, tile_index):
        temp = float(self.temps[self.chip.block_index(block.name)])
        model = block.power_model
        if tile_index is None:
            bus = self.chip.bus
            activity = min(1.0, bus.background_load
                           + (0.5 if bus.busy else 0.0))
            return model.power(model.params.f_ref_hz, model.params.v_ref,
                               activity, temp, gated=False)
        opp, active, gated = self.state[tile_index]
        if block.kind == BlockKind.PRIVATE_MEM:
            activity = 0.4 if active else 0.05
        else:
            activity = 1.0 if active else 0.0
        return model.power(opp.frequency_hz, opp.voltage, activity, temp,
                           gated=gated)

    def _recompute_tile(self, index):
        for block in self.chip.tiles[index].blocks:
            self.power[self.chip.block_index(block.name)] = \
                self._block_power(block, index)

    def _recompute_all(self):
        for index in range(len(self.chip.tiles)):
            self._recompute_tile(index)
        for block in self.chip.shared_blocks:
            self.power[self.chip.block_index(block.name)] = \
                self._block_power(block, None)


CHIPS = {"conf1-3tile": (CONF1_STREAMING, 3),
         "conf2-2tile": (CONF2_ARM11, 2)}


def _ops(n_tiles, n_levels, n_blocks):
    tile = st.integers(0, n_tiles - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("opp"), tile, st.integers(0, n_levels - 1)),
        st.tuples(st.just("active"), tile, st.booleans()),
        st.tuples(st.just("gated"), tile, st.booleans()),
        st.tuples(st.just("bus"), st.floats(1e3, 4e5)),
        st.tuples(st.just("advance"), st.floats(1e-5, 0.02)),
        st.tuples(st.just("temps"),
                  st.lists(st.floats(20.0, 130.0), min_size=n_blocks,
                           max_size=n_blocks)),
    ), min_size=1, max_size=40)


def _assert_same(chip, ref):
    assert np.array_equal(chip.current_power_w(), ref.power)
    assert np.array_equal(chip.drain_average_power(),
                          ref.drain_average_power())
    assert np.array_equal(chip.cumulative_energy_j(),
                          ref.cumulative_energy_j())


@pytest.mark.parametrize("name", sorted(CHIPS))
@settings(**PROP_SETTINGS)
@given(data=st.data())
def test_chip_power_is_bitwise_equal_to_reference(name, data):
    config, n_tiles = CHIPS[name]
    sim = Simulator()
    chip = build_chip(lambda: sim.now, n_tiles, config, sim=sim)
    ref = ReferenceChip(chip)
    levels = chip.tile(0).opp_table.points
    _assert_same(chip, ref)
    for op in data.draw(_ops(n_tiles, len(levels), chip.n_blocks),
                        label="ops"):
        kind = op[0]
        if kind == "opp":
            _, index, level = op
            chip.set_tile_opp(index, levels[level])
            ref.set_tile(index, "opp", levels[level])
        elif kind in ("active", "gated"):
            _, index, value = op
            getattr(chip, f"set_tile_{kind}")(index, value)
            ref.set_tile(index, kind, value)
        elif kind == "bus":
            chip.bus.start_transfer(op[1], lambda _transfer: None)
        elif kind == "advance":
            sim.run_until(sim.now + op[1])
        else:
            chip.update_temperatures(np.array(op[1]))
            ref.update_temperatures(op[1])
        _assert_same(chip, ref)
