"""Chip assembly and power/energy accounting.

A :class:`Chip` owns the hardware blocks, the per-tile DVFS state and the
shared bus, and maintains an *exact* per-block energy accumulator: every
tile state change (frequency, activity, gating) and every temperature
update first settles the energy integral at the cached power level, then
updates the cached level.  The thermal integrator drains
interval-averaged power from this accumulator every sensor period, so no
tile power transient is lost no matter how it interleaves with the 10 ms
thermal ticks.

The shared memory is the exception: its activity follows the bus, and
the bus does not notify the chip, so the shared blocks' power is sampled
only at construction and at each temperature update (the sensor ticks)
and held in between.  That is the model's behaviour, and the committed
goldens encode it.

Block power is split the way :meth:`PowerModel.power` defines it: a tile
block's dynamic power depends only on its tile's (OPP, active, gated)
state and is memoized per state for the whole run, while leakage depends
only on temperature and is recomputed once per temperature update.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.platform.bus import SharedBus
from repro.platform.components import BlockKind, HardwareBlock
from repro.platform.floorplan import Floorplan
from repro.platform.frequency import OperatingPoint, OperatingPointTable


class Tile:
    """One processor tile: core + I$/D$ + private memory + DVFS domain."""

    def __init__(self, index: int, core: HardwareBlock,
                 icache: HardwareBlock, dcache: HardwareBlock,
                 private_mem: HardwareBlock, opp_table: OperatingPointTable):
        self.index = index
        self.core = core
        self.icache = icache
        self.dcache = dcache
        self.private_mem = private_mem
        self.opp_table = opp_table
        self.opp: OperatingPoint = opp_table.max_point
        self.active = False      # a task is currently executing
        self.gated = False       # Stop&Go power gate engaged

    @property
    def blocks(self) -> List[HardwareBlock]:
        return [self.core, self.icache, self.dcache, self.private_mem]

    @property
    def frequency_hz(self) -> float:
        return self.opp.frequency_hz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "gated" if self.gated else ("busy" if self.active else "idle")
        return f"<Tile {self.index} @{self.opp.mhz:.0f}MHz {state}>"


class Chip:
    """The assembled MPSoC with live power state.

    Parameters
    ----------
    clock:
        Callable returning the current simulated time (normally
        ``lambda: sim.now``); the chip is time-agnostic otherwise.
    tiles:
        Processor tiles in index order.
    shared_blocks:
        Non-tile blocks (the shared memory).
    floorplan:
        Geometry for all blocks.
    bus:
        The shared interconnect.
    ambient_c:
        Ambient temperature; also the initial die temperature.
    """

    def __init__(self, clock: Callable[[], float], tiles: Sequence[Tile],
                 shared_blocks: Sequence[HardwareBlock],
                 floorplan: Floorplan, bus: SharedBus,
                 ambient_c: float = 30.0):
        self.clock = clock
        self.tiles: List[Tile] = list(tiles)
        self.shared_blocks: List[HardwareBlock] = list(shared_blocks)
        self.floorplan = floorplan
        self.bus = bus
        self.ambient_c = float(ambient_c)

        self.blocks: List[HardwareBlock] = []
        for tile in self.tiles:
            self.blocks.extend(tile.blocks)
        self.blocks.extend(self.shared_blocks)
        self._block_index: Dict[str, int] = {
            b.name: i for i, b in enumerate(self.blocks)}
        missing = [b.name for b in self.blocks if b.name not in floorplan]
        if missing:
            raise ValueError(f"blocks missing from floorplan: {missing}")

        n = len(self.blocks)
        self.temps_c = np.full(n, self.ambient_c, dtype=float)
        self._power_w = np.zeros(n, dtype=float)
        self._energy_j = np.zeros(n, dtype=float)
        self._cumulative_j = np.zeros(n, dtype=float)
        self._last_settle = self.clock()
        self._drain_from = self.clock()
        # A tile's blocks sit contiguously in the block vector, so its
        # entries are a slice (a view) rather than a fancy index.
        self._tile_slices: List[slice] = []
        start = 0
        for tile in self.tiles:
            self._tile_slices.append(slice(start, start + len(tile.blocks)))
            start += len(tile.blocks)
        self._shared_idx = [self._block_index[b.name]
                            for b in self.shared_blocks]
        # Tile block power is ``dyn + leak * scale``: ``dyn`` and
        # ``scale`` (1.0 when live, the gated leakage fraction when
        # gated, with ``dyn`` 0.0) follow the tile state, ``leak`` the
        # temperatures.  Shared entries stay 0.0 in all three vectors.
        self._dyn_w = np.zeros(n, dtype=float)
        self._leak_scale = np.zeros(n, dtype=float)
        self._leak_w = np.zeros(n, dtype=float)
        self._leak_params: List[Tuple[float, float, float]] = [
            (b.power_model.params.leak_ref, b.power_model.params.leak_alpha,
             b.power_model.params.t_ref_c)
            for tile in self.tiles for b in tile.blocks]
        self._dyn_memo: List[Dict] = [{} for _ in self.tiles]
        for tile in self.tiles:
            self._apply_tile_state(tile)
        self._refresh_power()

    # ------------------------------------------------------------------
    # topology queries
    # ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self, name: str) -> int:
        return self._block_index[name]

    def core_block_indices(self) -> List[int]:
        """Block-vector indices of the core blocks, in tile order."""
        return [self.block_index(t.core.name) for t in self.tiles]

    def tile(self, index: int) -> Tile:
        return self.tiles[index]

    # ------------------------------------------------------------------
    # state changes (called by the OS layer)
    # ------------------------------------------------------------------
    def set_tile_opp(self, tile_index: int, opp: OperatingPoint) -> None:
        tile = self.tiles[tile_index]
        if tile.opp == opp:
            return
        self.settle()
        tile.opp = opp
        self._apply_tile_state(tile)

    def set_tile_active(self, tile_index: int, active: bool) -> None:
        tile = self.tiles[tile_index]
        if tile.active == active:
            return
        self.settle()
        tile.active = active
        self._apply_tile_state(tile)

    def set_tile_gated(self, tile_index: int, gated: bool) -> None:
        tile = self.tiles[tile_index]
        if tile.gated == gated:
            return
        self.settle()
        tile.gated = gated
        self._apply_tile_state(tile)

    def update_temperatures(self, temps_c: np.ndarray) -> None:
        """Feed back block temperatures (leakage depends on them).

        Raises :class:`ValueError` naming the first block whose
        temperature is NaN or infinite; the chip's state is untouched.
        """
        if len(temps_c) != self.n_blocks:
            raise ValueError(
                f"expected {self.n_blocks} temperatures, got {len(temps_c)}")
        temps = np.array(temps_c, dtype=float)
        finite = np.isfinite(temps)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(
                f"non-finite temperature {temps[bad]} for block "
                f"{self.blocks[bad].name!r}")
        self.settle()
        self.temps_c = temps
        self._refresh_power()

    # ------------------------------------------------------------------
    # power / energy accounting
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Integrate energy at the cached power levels up to *now*."""
        now = self.clock()
        dt = now - self._last_settle
        if dt > 0:
            step = self._power_w * dt
            self._energy_j += step
            self._cumulative_j += step
            self._last_settle = now

    def current_power_w(self) -> np.ndarray:
        """Instantaneous per-block power (cached levels)."""
        return self._power_w.copy()

    def core_temps_c(self) -> np.ndarray:
        """Current core temperatures in tile order."""
        return self.temps_c[self.core_block_indices()].copy()

    def drain_average_power(self) -> np.ndarray:
        """Per-block power averaged since the previous drain.

        Used by the thermal integrator: the linear RC network driven by
        the interval-average power reproduces the exact end-of-interval
        temperatures for piecewise-constant power inputs.
        """
        self.settle()
        now = self.clock()
        dt = now - self._drain_from
        if dt <= 0:
            return self._power_w.copy()
        avg = self._energy_j / dt
        self._energy_j[:] = 0.0
        self._drain_from = now
        return avg

    def total_energy_j(self) -> float:
        """Energy consumed since the last drain (all blocks)."""
        self.settle()
        return float(self._energy_j.sum())

    def cumulative_energy_j(self) -> np.ndarray:
        """Per-block energy since construction — never reset.

        Unlike the drain accumulator (which the thermal sensors empty
        every period), this counter supports observers that need energy
        over arbitrary windows: snapshot it twice and subtract.
        """
        self.settle()
        return self._cumulative_j.copy()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _block_activity(self, block: HardwareBlock, tile: Optional[Tile]) -> float:
        """Activity factor for a block given its owning tile's state."""
        if tile is None:
            # Shared memory: busy with queue traffic plus migrations.
            base = self.bus.background_load
            return min(1.0, base + (0.5 if self.bus.busy else 0.0))
        if block.kind == BlockKind.CORE:
            return 1.0 if tile.active else 0.0
        if block.kind in (BlockKind.ICACHE, BlockKind.DCACHE):
            return 1.0 if tile.active else 0.0
        if block.kind == BlockKind.PRIVATE_MEM:
            return 0.4 if tile.active else 0.05
        return 0.0

    def _shared_block_power(self, block: HardwareBlock) -> float:
        # Shared blocks run at a fixed bus clock, modelled at f_ref.
        idx = self._block_index[block.name]
        params = block.power_model.params
        return block.power_model.power(
            params.f_ref_hz, params.v_ref, self._block_activity(block, None),
            float(self.temps_c[idx]), gated=False)

    def _tile_dynamic(self, tile: Tile) -> Tuple[np.ndarray, np.ndarray]:
        """``(dyn, scale)`` of a tile's blocks in its current state."""
        if tile.gated:
            # Clock and supply cut: only the residual leakage remains.
            return (np.zeros(len(tile.blocks)),
                    np.array([b.power_model.params.gated_leak_fraction
                              for b in tile.blocks]))
        dyn = [b.power_model.dynamic_power(
                   tile.opp.frequency_hz, tile.opp.voltage,
                   self._block_activity(b, tile))
               for b in tile.blocks]
        return np.array(dyn), np.ones(len(tile.blocks))

    def _apply_tile_state(self, tile: Tile) -> None:
        # The scheduler toggles ``active`` thousands of times per run,
        # and dynamic power never depends on temperature, so each
        # state's vector is computed once and kept for the whole run.
        memo = self._dyn_memo[tile.index]
        key = (tile.opp, tile.active, tile.gated)
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = self._tile_dynamic(tile)
        dyn, scale = entry
        s = self._tile_slices[tile.index]
        self._dyn_w[s] = dyn
        self._leak_scale[s] = scale
        self._power_w[s] = dyn + self._leak_w[s] * scale

    def _refresh_power(self) -> None:
        """Recompute leakage at the current temperatures, then all power.

        One ``math.exp`` per tile block, in the operation order of
        :meth:`PowerModel.leakage_power`: ``np.exp`` is not bitwise
        equal to ``math.exp`` on every platform, and the goldens pin
        the scalar results.
        """
        exp = math.exp
        temps = self.temps_c.tolist()
        self._leak_w[:len(self._leak_params)] = [
            leak_ref * exp(alpha * (t - t_ref))
            for (leak_ref, alpha, t_ref), t in zip(self._leak_params, temps)]
        np.add(self._dyn_w, self._leak_w * self._leak_scale,
               out=self._power_w)
        for idx, block in zip(self._shared_idx, self.shared_blocks):
            self._power_w[idx] = self._shared_block_power(block)
