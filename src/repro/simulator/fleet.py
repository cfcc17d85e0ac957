"""Cross-scenario batched simulation: many clusters, one vectorized step.

:class:`FleetEngine` steps N independent, compatible clusters ("lanes")
through a single structure-of-arrays.  Where :class:`FastEngine`
vectorizes over the cores of one cluster, the fleet vectorizes over
``scenario_lane x core``: every core of every lane lives at one flat
unit index in shared numpy state arrays (register files, program
counters, wake times, stall counters), and one event wheel — keyed by
cycle, holding flat unit ids — drives them all.  The Python interpreter
overhead of the per-cycle bookkeeping is paid once per *fleet* cycle
instead of once per scenario, which is where the batched backend's
speedup on sweep/search grids comes from.

Equivalence contract
--------------------
Per lane the fleet is **bit-identical** to :class:`FastEngine`: cycles,
instructions, barrier episodes, per-core stall breakdowns, router /
tile / bank / i-cache counters, register files, and SPM contents all
match, because

* flat unit ids are lane-contiguous and lanes never share fabric state,
  so visiting due units in ascending flat id preserves each lane's
  ascending-core-id intra-cycle order — the order bank-conflict and
  remote-port arbitration resolve in;
* port and bank arbitration are evaluated jointly per cycle with a
  rank trick (attempt order within each ``(lane, tile)`` / ``(lane,
  bank)`` group) that reproduces the serial claim/conflict sequence
  exactly;
* cycles that touch control flow the vector path cannot express —
  barrier arrivals, halts, end-of-program, memory faults — fall back to
  a scalar per-unit step that is a direct port of the fast engine's.

Lanes retire independently: a lane whose cores have all halted is
written back and removed mid-run, a lane that faults or times out is
written back with the fast engine's exact abort accounting, and the
surviving lanes keep stepping.  :meth:`FleetEngine.run` therefore never
raises for lane-level failures — it returns one :class:`LaneOutcome`
per lane, carrying either the :class:`SimulationResult` or the
exception the fast engine would have raised.

Admission is stricter than the fast path's: :meth:`FleetEngine.supports`
additionally requires plain :class:`SnitchCore` cores (no scoreboard)
and provably-hot-or-absent i-caches, because those are the
configurations whose per-cycle work is expressible as array operations.
Everything else belongs on the existing engines — the batched backend
falls back transparently.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from ..arch.snitch import SnitchCore
from .engine import SimulationResult, SimulationTimeout
from .fast import (
    _ADD,
    _ADDI,
    _BARRIER,
    _BLT,
    _BNE,
    _CSRR,
    _HALT,
    _IC_HOT,
    _IC_SIM,
    _INF,
    _J,
    _LI,
    _LW,
    _LWP,
    _MAC,
    _MASK,
    _MUL,
    _NOP,
    _R_BAR,
    _R_DRAIN,
    _R_ICW,
    _R_LOAD,
    _R_NONE,
    _R_STORE,
    _RUN,
    _STATE_BACK,
    _SUB,
    _SW,
    _SWP,
    _WBAR,
    _WMEM,
    _HALTED,
    FastEngine,
    _always_released,
    _decode,
)

__all__ = ["FleetEngine", "LaneOutcome"]

_I64 = np.int64

# Opcode-group boundaries for the class-sorted vector step: searching
# the sorted opcode column against 0..17 yields the start of every
# opcode's contiguous slice.
_EDGES = np.arange(18)


def _signed32(x: np.ndarray) -> np.ndarray:
    """Two's-complement reinterpretation of 32-bit register values."""
    return np.where(x & 0x80000000 != 0, x - 0x100000000, x)


@dataclass
class LaneOutcome:
    """Terminal state of one lane: a result, or the fault it died with."""

    result: Optional[SimulationResult] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class FleetEngine:
    """Runs a batch of loaded clusters to completion, one SoA step.

    Args:
        clusters: Clusters with programs loaded, each individually
            accepted by :meth:`supports`.
        max_cycles: Per-lane safety limit (shared by the whole fleet,
            like :class:`FastEngine`'s); lanes still running at the
            limit get a :class:`SimulationTimeout` outcome.
    """

    def __init__(self, clusters, max_cycles: int = 5_000_000) -> None:
        if max_cycles <= 0:
            raise ValueError("cycle limit must be positive")
        clusters = list(clusters)
        if not clusters:
            raise ValueError("fleet has no lanes")
        for index, cluster in enumerate(clusters):
            if not self.supports(cluster):
                raise ValueError(
                    f"lane {index}: cluster not supported by FleetEngine"
                )
        self.clusters = clusters
        self.max_cycles = max_cycles
        self.cycle = 0
        self._setup()

    # ------------------------------------------------------------------
    @classmethod
    def supports(cls, cluster) -> bool:
        """Whether this cluster can ride in a fleet bit-for-bit.

        Everything :meth:`FastEngine.supports` requires, plus: plain
        :class:`SnitchCore` cores only (the scoreboard model's hazard /
        fence retries are inherently serial) and i-caches that are
        provably hot or absent (a simulated i-cache would force every
        fetch through a per-core object).
        """
        if not FastEngine.supports(cluster):
            return False
        cores = cluster.cores
        if any(type(core) is not SnitchCore for core in cores):
            return False
        programs = [core.program for core in cores]
        stable, modes = FastEngine._classify_icaches(cores, programs)
        if not stable:
            return False
        return all(mode != _IC_SIM for mode in modes)

    # ------------------------------------------------------------------
    def _setup(self) -> None:
        """Build the lane/unit SoA image from the admitted clusters."""
        clusters = self.clusters
        nlanes = len(clusters)

        counts = [len(cluster.cores) for cluster in clusters]
        offsets = [0] * nlanes
        total = 0
        for lane, count in enumerate(counts):
            offsets[lane] = total
            total += count
        self.nlanes = nlanes
        self.nunits = total
        self.off_l = offsets
        self.count_l = counts

        # -- lane geometry ---------------------------------------------
        def lane_arr(fn):
            return np.asarray([fn(c) for c in clusters], dtype=_I64)

        self.bpt_l = lane_arr(lambda c: c.arch.banks_per_tile)
        self.ntiles_l = lane_arr(lambda c: c.arch.num_tiles)
        self.cpt_l = lane_arr(lambda c: c.arch.cores_per_tile)
        self.tpg_l = lane_arr(lambda c: c.arch.tiles_per_group)
        self.rports_l = lane_arr(lambda c: c.arch.remote_ports_per_tile)
        self.lat_local_l = lane_arr(lambda c: c.arch.local_latency)
        self.lat_group_l = lane_arr(lambda c: c.arch.group_latency)
        self.lat_cluster_l = lane_arr(lambda c: c.arch.cluster_latency)
        self.spm_l = lane_arr(lambda c: c.memory_map.spm_bytes)
        self.nbanks_l = lane_arr(lambda c: c.arch.num_banks)
        self.stride_l = self.bpt_l * self.ntiles_l
        self.tmax = int(self.ntiles_l.max())
        self.bmax = int(self.nbanks_l.max())

        # Uniform-geometry fast path: batches grouped by compatibility
        # share one topology, so the per-unit geometry "gathers" in the
        # hot loop collapse to Python ints.  ``None`` means mixed.
        def uniform(arr) -> Optional[int]:
            first = int(arr.flat[0])
            return first if (arr == first).all() else None

        self.u_bpt = uniform(self.bpt_l)
        self.u_ntiles = uniform(self.ntiles_l)
        self.u_tpg = uniform(self.tpg_l)
        self.u_rports = uniform(self.rports_l)
        self.u_spm = uniform(self.spm_l)
        self.u_lat = (
            uniform(self.lat_local_l),
            uniform(self.lat_group_l),
            uniform(self.lat_cluster_l),
        )
        if None in self.u_lat:
            self.u_lat = None

        # -- per-lane fabric state -------------------------------------
        self.flat_banks_l = [
            [bank for tile in c.tiles for bank in tile.spm.banks]
            for c in clusters
        ]
        self.bank_busy = np.full((nlanes, self.bmax), -2, dtype=_I64)
        for lane, banks in enumerate(self.flat_banks_l):
            self.bank_busy[lane, : len(banks)] = [
                bank._busy_cycle for bank in banks  # property bypass
            ]
        self.b_reads = np.zeros((nlanes, self.bmax), dtype=_I64)
        self.b_writes = np.zeros((nlanes, self.bmax), dtype=_I64)
        self.b_conf = np.zeros((nlanes, self.bmax), dtype=_I64)
        self.port_use = np.zeros((nlanes, self.tmax), dtype=_I64)
        self.port_cur_l = np.full(nlanes, -1, dtype=_I64)
        for lane, cluster in enumerate(clusters):
            cur, use = cluster.router.export_port_state()
            self.port_cur_l[lane] = cur
            for tile, used in use.items():
                self.port_use[lane, tile] = used
        self.local_req = np.zeros((nlanes, self.tmax), dtype=_I64)
        self.remote_in = np.zeros((nlanes, self.tmax), dtype=_I64)
        self.local_acc_l = np.zeros(nlanes, dtype=_I64)
        self.group_acc_l = np.zeros(nlanes, dtype=_I64)
        self.cluster_acc_l = np.zeros(nlanes, dtype=_I64)
        self.bank_conf_l = np.zeros(nlanes, dtype=_I64)
        self.port_conf_l = np.zeros(nlanes, dtype=_I64)
        self.barriers = [cluster.barrier for cluster in clusters]

        # -- shared SPM image ------------------------------------------
        # One dense (lane x word) plane holding every lane's visible
        # SPM contents over [0, mem_width): pre-filled by peeking the
        # banks (untouched words read 0), so loads are plain gathers.
        # ``dirty`` marks the stored-to subset: only those words can
        # differ from the banks, so only they are poked back at lane
        # write-back.  Accesses past the plane grow it, re-filling the
        # new column range.
        width = 1024
        self.mem_width = width
        self.mem_img = np.zeros((nlanes, width), dtype=_I64)
        self.dirty = np.zeros((nlanes, width), dtype=bool)
        self.stride_py = [int(s) for s in self.stride_l]
        self._fill_planes(0)

        # -- deferred access accounting --------------------------------
        # The vector path logs accesses as flat keys and folds them
        # into the counter planes in one bincount per flush (at lane
        # write-back) instead of one scattered np.add.at per cycle.
        self.ev_port_conf: list = []  # lane ids
        self.ev_bank_conf: list = []  # lane * bmax + flat_bank
        self.ev_read: list = []       # lane * bmax + flat_bank
        self.ev_write: list = []      # lane * bmax + flat_bank
        self.ev_local: list = []      # lane * tmax + tile
        self.ev_group: list = []      # lane * tmax + tile
        self.ev_cluster: list = []    # lane * tmax + tile
        self.ev_gap_u: list = []      # units with slept-through cycles
        self.ev_gap_v: list = []      # matching gap lengths
        self.ev_gap_r: list = []      # matching sleep reasons

        # -- unit state ------------------------------------------------
        lane_u = np.empty(total, dtype=_I64)
        core_id_u = np.empty(total, dtype=_I64)
        regs = np.zeros((total, 32), dtype=_I64)
        pc = np.zeros(total, dtype=_I64)
        self.icaches_u = [None] * total
        self.release_u: list = [None] * total
        self.arrives_u: list = [None] * total
        store_lat_u = np.ones(total, dtype=_I64)
        ic_hot_u = np.zeros(total, dtype=bool)
        prog_u = np.zeros(total, dtype=_I64)
        plen_u = np.zeros(total, dtype=_I64)

        decoded: dict[int, int] = {}
        prog_images: list[list[tuple]] = []
        for lane, cluster in enumerate(clusters):
            start = offsets[lane]
            count = counts[lane]
            cores = cluster.cores
            programs = [core.program for core in cores]
            _stable, modes = FastEngine._classify_icaches(cores, programs)
            lane_u[start:start + count] = lane
            core_id_u[start:start + count] = np.arange(count, dtype=_I64)
            regs[start:start + count] = [core.regs for core in cores]
            pc[start:start + count] = [core.pc for core in cores]
            for local, core in enumerate(cores):
                unit = start + local
                self.icaches_u[unit] = core.icache
                self.arrives_u[unit] = core.barrier_arrive
                store_lat_u[unit] = getattr(core, "store_latency", 1)
                ic_hot_u[unit] = modes[local] == _IC_HOT
                program = core.program
                index = decoded.get(id(program))
                if index is None:
                    index = len(prog_images)
                    decoded[id(program)] = index
                    prog_images.append(_decode(program))
                prog_u[unit] = index
                plen_u[unit] = len(prog_images[index])

        pmax = max(1, max(len(img) for img in prog_images))
        nprogs = len(prog_images)
        # Packed (program, slot, field) table: one gather per cycle
        # fetches every decoded field at once.  Field columns:
        # 0=code 1=rd 2=rs1 3=rs2 4=imm 5=target.  Slots past a
        # program's end (up to and including pmax, the largest pc any
        # unit can reach) read as HALT so gathers need no bounds guard.
        self.op_tab = np.zeros((nprogs, pmax + 1, 6), dtype=_I64)
        self.op_tab[:, :, 0] = _HALT
        for index, image in enumerate(prog_images):
            for slot, (code, rd, rs1, rs2, imm, target, _hz) in \
                    enumerate(image):
                self.op_tab[index, slot] = (
                    code,
                    0 if rd is None else rd,
                    0 if rs1 is None else rs1,
                    0 if rs2 is None else rs2,
                    0 if imm is None else imm,
                    0 if target is None else target,
                )
        self.op_code = self.op_tab[:, :, 0]
        self.op_rd = self.op_tab[:, :, 1]
        self.op_rs1 = self.op_tab[:, :, 2]
        self.op_rs2 = self.op_tab[:, :, 3]
        self.op_imm = self.op_tab[:, :, 4]
        self.op_tgt = self.op_tab[:, :, 5]

        self.lane_u = lane_u
        self.core_id_u = core_id_u
        self.src_tile_u = core_id_u // self.cpt_l[lane_u]
        self.src_group_u = self.src_tile_u // self.tpg_l[lane_u]
        self.bpt_u = self.bpt_l[lane_u]
        self.ntiles_u = self.ntiles_l[lane_u]
        self.tpg_u = self.tpg_l[lane_u]
        self.spm_u = self.spm_l[lane_u]
        self.lat_local_u = self.lat_local_l[lane_u]
        self.lat_group_u = self.lat_group_l[lane_u]
        self.lat_cluster_u = self.lat_cluster_l[lane_u]
        self.store_lat_u = store_lat_u
        self.u_store_lat = (
            int(store_lat_u[0])
            if (store_lat_u == store_lat_u[0]).all() else None
        )
        self.ic_hot_u = ic_hot_u
        self.hot_all = bool(ic_hot_u.all())
        self.hot_none = not ic_hot_u.any()
        # Single-core lanes share no fabric state with anyone — no port
        # or bank contention is possible — so (with a hot i-cache) the
        # turbo path can run whole instruction sequences per visit.
        self.turbo_u = (
            np.asarray(self.count_l, dtype=_I64)[lane_u] == 1
        ) & ic_hot_u
        self.any_turbo = bool(self.turbo_u.any())
        # Largest possible single-step advance of a turbo virtual clock
        # (taken branch = 2; else the op's latency) — lets the hot loop
        # skip horizon checks while a running upper bound stays under
        # max_cycles — and whether any store can sleep at all.
        self.turbo_max_dur = max(
            2,
            int(self.lat_local_l.max()),
            int(self.lat_group_l.max()),
            int(self.lat_cluster_l.max()),
            int(store_lat_u.max()) if store_lat_u.size else 1,
        )
        self.turbo_store_slow = (
            self.u_store_lat is None or self.u_store_lat > 1
        )
        self.prog_u = prog_u
        self.plen_u = plen_u
        self.regs = regs
        self.pc = pc
        self.state = np.full(total, _RUN, dtype=_I64)
        self.wake = np.zeros(total, dtype=_I64)
        self.reason = np.full(total, _R_NONE, dtype=_I64)
        self.last_step = np.full(total, -1, dtype=_I64)
        self.stall_until = np.zeros(total, dtype=_I64)
        self.pend_reg = np.full(total, -1, dtype=_I64)  # -1 encodes None
        self.pend_data = np.zeros(total, dtype=_I64)
        self.fetch_hits = np.zeros(total, dtype=_I64)
        self.st_instr = np.zeros(total, dtype=_I64)
        self.st_load = np.zeros(total, dtype=_I64)
        self.st_store = np.zeros(total, dtype=_I64)
        self.st_bar = np.zeros(total, dtype=_I64)
        self.st_ic = np.zeros(total, dtype=_I64)
        self.st_branch = np.zeros(total, dtype=_I64)
        self.st_conflict = np.zeros(total, dtype=_I64)

        # -- lane lifecycle --------------------------------------------
        self.alive_l = [
            list(range(offsets[lane], offsets[lane] + counts[lane]))
            for lane in range(nlanes)
        ]
        self.lane_alive = list(counts)
        self.lane_done = [False] * nlanes
        self.dead_u = np.zeros(total, dtype=bool)
        self.any_dead = False
        self.outcomes: list[Optional[LaneOutcome]] = [None] * nlanes
        self.pending_lanes = nlanes

        # -- event wheel -----------------------------------------------
        self._sched: dict[int, list] = {0: [np.arange(total, dtype=_I64)]}
        self._heap = [0]
        self._qnext: list = []

    # ------------------------------------------------------------------
    def _fill_planes(self, lo: int) -> None:
        """Copy bank contents for words in [lo, mem_width) into the
        image plane.

        Word ``w`` lives at offset ``w // stride`` of bank
        ``w % stride``, so offset ``k`` of every bank, in bank order,
        is the run of words ``[k * stride, (k + 1) * stride)``.
        """
        hi = self.mem_width
        img = self.mem_img
        for lane, banks in enumerate(self.flat_banks_l):
            stride = self.stride_py[lane]
            bank_words = int(self.spm_l[lane]) // 4 // stride
            kmax = min(-(-hi // stride), bank_words)
            for k in range(lo // stride, kmax):
                col = np.asarray([bank.peek(k) for bank in banks], dtype=_I64)
                a = k * stride
                b = min(a + stride, hi)
                off = lo - a if lo > a else 0
                img[lane, a + off : b] = col[off : b - a]

    def _grow_mem(self, need: int) -> None:
        width = self.mem_width
        while width <= need:
            width *= 2
        img = np.zeros((self.nlanes, width), dtype=_I64)
        img[:, : self.mem_width] = self.mem_img
        wet = np.zeros((self.nlanes, width), dtype=bool)
        wet[:, : self.mem_width] = self.dirty
        self.mem_img = img
        self.dirty = wet
        lo = self.mem_width
        self.mem_width = width
        self._fill_planes(lo)

    # ------------------------------------------------------------------
    def _push(self, unit: int, at: int) -> None:
        """Scalar-path schedule insert, one unit."""
        self.wake[unit] = at
        entry = self._sched.get(at)
        if entry is None:
            self._sched[at] = [unit]
            heappush(self._heap, at)
        else:
            entry.append(unit)

    def _push_batch(self, units: np.ndarray, wakes: np.ndarray) -> None:
        """Vector-path schedule insert: group by distinct wake cycle."""
        self.wake[units] = wakes
        sched = self._sched
        for at in np.unique(wakes):
            at = int(at)
            batch = units[wakes == at]
            entry = sched.get(at)
            if entry is None:
                sched[at] = [batch]
                heappush(self._heap, at)
            else:
                entry.append(batch)

    # ------------------------------------------------------------------
    def run(self) -> list[LaneOutcome]:
        """Step every lane to completion; one outcome per lane.

        Lane-level failures (faults, timeouts) are captured in the
        corresponding :class:`LaneOutcome` — the fleet itself never
        raises for them, and the failing lane's cluster is left in the
        exact state :class:`FastEngine` would have left it in.
        """
        max_cycles = self.max_cycles
        sched = self._sched
        heap = self._heap
        cycle = 0

        while self.pending_lanes:
            qnext = self._qnext
            if qnext:
                cycle += 1
                entry = sched.pop(cycle, None)
                if entry is not None:
                    if heap and heap[0] == cycle:
                        heappop(heap)
                    qnext.extend(entry)
                parts = qnext
                self._qnext = []
            elif heap:
                cycle = heappop(heap)
                parts = sched.pop(cycle)
            else:
                cycle = max_cycles  # deadlock: idle-tick to the limit
                parts = []
            if cycle >= max_cycles:
                self.cycle = max_cycles
                for lane in range(self.nlanes):
                    if not self.lane_done[lane]:
                        self._timeout_lane(lane)
                break
            due = self._combine(parts)
            if due.size == 0:
                continue
            self._dispatch(cycle, due)
        else:
            self.cycle = cycle + 1

        return list(self.outcomes)  # every lane finalized above

    # ------------------------------------------------------------------
    def _combine(self, parts) -> np.ndarray:
        """Merge wheel entries (arrays and ints) into one sorted array."""
        arrays = []
        ints = []
        for part in parts:
            if isinstance(part, np.ndarray):
                arrays.append(part)
            else:
                ints.append(part)
        if ints:
            arrays.append(np.asarray(ints, dtype=_I64))
        if not arrays:
            return np.empty(0, dtype=_I64)
        due = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        if self.any_dead:
            due = due[~self.dead_u[due]]
        due = np.sort(due)
        return due

    # ------------------------------------------------------------------
    def _dispatch(self, cycle: int, due: np.ndarray) -> None:
        """Split this cycle's due set between the two step paths.

        A unit needs the scalar per-unit port when it touches control
        flow the vector path cannot express: barrier waits/arrivals,
        halts, end of program, or a memory fault about to abort its
        lane.  Lanes never share fabric state, so the split is by
        *lane* — every due unit of a flagged unit's lane steps scalar
        (preserving that lane's serial intra-cycle order), and all
        other lanes step through the vector path in the same cycle.
        """
        state = self.state[due]
        p = self.pc[due]
        pi = self.prog_u[due]
        ops = self.op_tab[pi, p]  # past-end slots read as HALT
        code = ops[:, 0]
        flag = (state == _WBAR) | (code == _BARRIER) | (code == _HALT)
        is_mem = (code >= _LW) & (code <= _SWP) & ~flag
        addr = None
        ops_m = None
        if is_mem.any():
            mu = due[is_mem]
            ops_m = ops[is_mem]
            code_m = ops_m[:, 0]
            rs1_m = ops_m[:, 2]
            imm_m = ops_m[:, 4]
            r1 = self.regs[mu, rs1_m]
            pend = self.pend_reg[mu]
            committed = (
                (state[is_mem] == _WMEM) & (pend == rs1_m) & (pend > 0)
            )
            r1 = np.where(committed, self.pend_data[mu], r1)
            use_imm = (code_m == _LW) | (code_m == _SW)
            addr = np.where(use_imm, (r1 + imm_m) & _MASK, r1)
            spm = self.u_spm
            if spm is None:
                spm = self.spm_u[mu]
            bad = (addr >= spm) | (addr & 3 != 0)
            if bad.any():
                flag[np.flatnonzero(is_mem)[bad]] = True
        if self.any_turbo:
            turbo = self.turbo_u[due] & ~flag
            if turbo.any():
                self._turbo_run(cycle, due[turbo])
                keep = ~turbo
                if not keep.any():
                    return
                due = due[keep]
                state = state[keep]
                p = p[keep]
                ops = ops[keep]
                code = code[keep]
                if addr is not None:
                    ka = keep[is_mem]
                    addr = addr[ka]
                    ops_m = ops_m[ka]
                is_mem = is_mem[keep]
                if addr is not None and not is_mem.any():
                    addr = None
                    ops_m = None
                flag = flag[keep]
        if not flag.any():
            self._vector_cycle(
                cycle, due, (p, ops, code, is_mem, addr, ops_m)
            )
            return
        lanes = self.lane_u[due]
        scalar_lane = np.zeros(self.nlanes, dtype=bool)
        scalar_lane[lanes[flag]] = True
        sm = scalar_lane[lanes]
        self._scalar_cycle(cycle, due[sm])
        vm = ~sm
        if vm.any():
            addr_v = None
            ops_mv = None
            is_mem_v = is_mem[vm]
            if addr is not None and is_mem_v.any():
                keep = vm[is_mem]
                addr_v = addr[keep]
                ops_mv = ops_m[keep]
            self._vector_cycle(
                cycle, due[vm],
                (p[vm], ops[vm], code[vm], is_mem_v, addr_v, ops_mv),
            )

    # ------------------------------------------------------------------
    def _turbo_run(self, cycle: int, units: np.ndarray) -> None:
        """Run single-core lanes many instructions per visit.

        A one-core lane owns its whole fabric — no other unit can touch
        its ports, banks or barrier mid-run — so its instruction stream
        is private and can be executed straight through: loads commit
        immediately (folding the serial engine's sleep/wake visit into
        the issue) while each unit's virtual clock ``t`` advances by
        the op's true duration.  The run stops, bit-exactly, where
        shared or unpredictable control flow resumes: barriers, halts,
        end of program, a faulting access (re-dispatched at its cycle
        so the scalar path replays the fault), or any sleep that would
        cross ``max_cycles`` (left in its serial mid-sleep state so
        timeout write-back matches the fast engine).
        """
        regs = self.regs
        pc = self.pc
        state = self.state
        reason = self.reason
        st_instr = self.st_instr
        op_tab = self.op_tab
        max_cycles = self.max_cycles
        u = units
        t = np.full(u.size, cycle, dtype=_I64)

        # entry bookkeeping: fold slept-through cycles, commit loads
        gap = cycle - self.last_step[u] - 1
        has_gap = gap > 0
        if has_gap.any():
            gu = u[has_gap]
            self.ev_gap_u.append(gu)
            self.ev_gap_v.append(gap[has_gap])
            self.ev_gap_r.append(reason[gu])
        wm = state[u] == _WMEM
        if wm.any():
            wu = u[wm]
            pend = self.pend_reg[wu]
            writes = pend > 0
            if writes.any():
                regs[wu[writes], pend[writes]] = self.pend_data[wu[writes]]
            self.pend_reg[wu] = -1
        state[u] = _RUN

        pi = self.prog_u[u]
        t_hi = cycle  # running upper bound on max(t): while it stays
        md = self.turbo_max_dur  # under the horizon, skip cross checks
        while u.size:
            pp = pc[u]
            ops = op_tab[pi, pp]  # past-end slots read as HALT
            c = ops[:, 0]
            counts = np.bincount(c, minlength=17)
            n_mem = int(counts[_LW:_SWP + 1].sum())
            n_stop = int(counts[_BARRIER]) + int(counts[_HALT])
            addr = None
            is_mem = None
            stop = None
            if n_mem:
                is_mem = (c >= _LW) & (c <= _SWP)
                r1 = regs[u, ops[:, 2]]
                use_imm = (c == _LW) | (c == _SW)
                addr = np.where(use_imm, (r1 + ops[:, 4]) & _MASK, r1)
                spm = self.u_spm
                if spm is None:
                    spm = self.spm_u[u]
                bad = is_mem & ((addr >= spm) | (addr & 3 != 0))
                if bad.any():
                    stop = bad
                    n_stop += 1
            if n_stop:
                halt_bar = (c == _BARRIER) | (c == _HALT)
                stop = halt_bar if stop is None else stop | halt_bar
                su = u[stop]
                self.last_step[su] = t[stop] - 1
                self._push_batch(su, t[stop])
                keep = ~stop
                u = u[keep]
                if not u.size:
                    break
                pi = pi[keep]
                t = t[keep]
                c = c[keep]
                ops = ops[keep]
                pp = pp[keep]
                counts = np.bincount(c, minlength=17)
                n_mem = int(counts[_LW:_SWP + 1].sum())
                if addr is not None:
                    if n_mem:
                        addr = addr[keep]
                        is_mem = is_mem[keep]
                    else:
                        addr = None
                        is_mem = None

            st_instr[u] += 1
            self.fetch_hits[u] += 1  # turbo lanes are hot by admission
            nt = t + 1

            # ALU / CSRR / NOP / J (private register file updates)
            n_alu = int(counts[:_MAC + 1].sum()) + int(counts[_CSRR])
            if n_alu:
                c0 = int(c[0])
                if int(counts[c0]) == u.size:
                    # lockstep batches fetch one opcode fleet-wide —
                    # compute it unmasked
                    if c0 == _LI:
                        val = ops[:, 4]
                    elif c0 == _ADD:
                        val = regs[u, ops[:, 2]] + regs[u, ops[:, 3]]
                    elif c0 == _SUB:
                        val = regs[u, ops[:, 2]] - regs[u, ops[:, 3]]
                    elif c0 == _ADDI:
                        val = regs[u, ops[:, 2]] + ops[:, 4]
                    elif c0 == _CSRR:
                        val = self.core_id_u[u]
                    else:
                        val = _signed32(regs[u, ops[:, 2]]) * \
                            _signed32(regs[u, ops[:, 3]])
                        if c0 == _MAC:
                            val = val + regs[u, ops[:, 1]]
                    w = ops[:, 1] > 0
                    if int(np.count_nonzero(w)) == u.size:
                        regs[u, ops[:, 1]] = val & _MASK
                    else:
                        regs[u[w], ops[:, 1][w]] = val[w] & _MASK
                else:
                    val = np.zeros(u.size, dtype=_I64)
                    if counts[_LI]:
                        m = c == _LI
                        val[m] = ops[:, 4][m]
                    if counts[_ADD]:
                        m = c == _ADD
                        val[m] = regs[u, ops[:, 2]][m] + \
                            regs[u, ops[:, 3]][m]
                    if counts[_SUB]:
                        m = c == _SUB
                        val[m] = regs[u, ops[:, 2]][m] - \
                            regs[u, ops[:, 3]][m]
                    if counts[_ADDI]:
                        m = c == _ADDI
                        val[m] = regs[u, ops[:, 2]][m] + ops[:, 4][m]
                    if counts[_MUL] or counts[_MAC]:
                        m = (c == _MUL) | (c == _MAC)
                        prod = _signed32(regs[u, ops[:, 2]][m]) * \
                            _signed32(regs[u, ops[:, 3]][m])
                        mac = c[m] == _MAC
                        if mac.any():
                            um = u[m]
                            prod[mac] += regs[um[mac], ops[:, 1][m][mac]]
                        val[m] = prod
                    if counts[_CSRR]:
                        m = c == _CSRR
                        val[m] = self.core_id_u[u[m]]
                    w = ((c <= _MAC) | (c == _CSRR)) & (ops[:, 1] > 0)
                    regs[u[w], ops[:, 1][w]] = val[w] & _MASK
            n_br = int(counts[_BNE]) + int(counts[_BLT])
            n_j = int(counts[_J])
            n_seq = u.size - n_mem - n_br - n_j
            if n_seq == u.size:
                pc[u] = pp + 1
            elif n_seq:
                seq = (c <= _MAC) | (c >= _CSRR)  # CSRR/NOP step ahead
                pc[u[seq]] = pp[seq] + 1
            if n_j:
                m = c == _J
                pc[u[m]] = ops[:, 5][m]

            # branches: taken costs the 2-cycle shadow
            m_taken = None
            if n_br:
                if n_br == u.size:  # lockstep: branch fleet-wide
                    av = _signed32(regs[u, ops[:, 2]])
                    bv = _signed32(regs[u, ops[:, 3]])
                    m_taken = np.where(c == _BNE, av != bv, av < bv)
                    n_taken = int(np.count_nonzero(m_taken))
                    if n_taken < n_br:
                        nott = ~m_taken
                        pc[u[nott]] = pp[nott] + 1
                else:
                    br = (c == _BNE) | (c == _BLT)
                    av = _signed32(regs[u, ops[:, 2]][br])
                    bv = _signed32(regs[u, ops[:, 3]][br])
                    taken = np.where(c[br] == _BNE, av != bv, av < bv)
                    n_taken = int(np.count_nonzero(taken))
                    m_taken = np.zeros(u.size, dtype=bool)
                    m_taken[np.flatnonzero(br)[taken]] = True
                    if n_taken < n_br:
                        nott = br & ~m_taken
                        pc[u[nott]] = pp[nott] + 1
                if n_taken:
                    tu = u[m_taken]
                    self.st_branch[tu] += 1
                    pc[tu] = ops[:, 5][m_taken]
                    nt[m_taken] = t[m_taken] + 2
                else:
                    m_taken = None

            # memory: every access wins its (private) bank and port
            ldata = None
            if n_mem:
                full = n_mem == u.size  # lockstep: access fleet-wide
                if full:
                    mu = u
                    mc = c
                    maddr = addr
                    mt = t
                    ops_m = ops
                else:
                    im = np.flatnonzero(is_mem)
                    mu = u[im]
                    mc = c[im]
                    maddr = addr[im]
                    mt = t[im]
                    ops_m = ops[im]
                ml = self.lane_u[mu]
                mword = maddr >> 2
                top = int(mword.max())
                if top >= self.mem_width:
                    self._grow_mem(top)
                bpt = self.bpt_u[mu]
                bank = mword % bpt
                tile = (mword // bpt) % self.ntiles_u[mu]
                flat = tile * bpt + bank
                self.bank_busy[ml, flat] = mt
                bkey = ml * self.bmax + flat
                remote = tile != self.src_tile_u[mu]
                n_remote = int(np.count_nonzero(remote))
                tkey = ml * self.tmax + tile
                local = ~remote
                if n_remote:
                    rl = ml[remote]
                    self.port_use[rl, :] = 0  # sole access of its cycle
                    self.port_use[rl, tile[remote]] = 1
                    self.port_cur_l[rl] = mt[remote]
                    in_group = remote & (
                        tile // self.tpg_u[mu] == self.src_group_u[mu]
                    )
                    self.ev_group.append(tkey[in_group])
                    self.ev_cluster.append(tkey[remote & ~in_group])
                    lat = np.where(
                        local, self.lat_local_u[mu],
                        np.where(in_group, self.lat_group_u[mu],
                                 self.lat_cluster_u[mu]),
                    )
                else:
                    ul = self.u_lat
                    lat = ul[0] if ul is not None else self.lat_local_u[mu]
                if n_remote < n_mem:
                    self.ev_local.append(tkey[local])
                n_st = int(counts[_SW]) + int(counts[_SWP])
                if n_st == 0:
                    ldata = self.mem_img[ml, mword] if full else None
                    if ldata is None:
                        ldata = np.zeros(u.size, dtype=_I64)
                        ldata[im] = self.mem_img[ml, mword]
                    self.ev_read.append(bkey)
                elif n_st == n_mem:
                    # store value read before the post-increment below
                    sval = regs[mu, ops_m[:, 3]]
                    self.mem_img[ml, mword] = sval & _MASK
                    self.dirty[ml, mword] = True
                    self.ev_write.append(bkey)
                else:
                    is_store = (mc == _SW) | (mc == _SWP)
                    sl = ml[is_store]
                    sw = mword[is_store]
                    sval = regs[mu[is_store], ops_m[:, 3][is_store]]
                    self.mem_img[sl, sw] = sval & _MASK
                    self.dirty[sl, sw] = True
                    self.ev_write.append(bkey[is_store])
                    loads = ~is_store
                    ldata = np.zeros(u.size, dtype=_I64)
                    lsel = loads if full else im[loads]
                    ldata[lsel] = self.mem_img[ml[loads], mword[loads]]
                    self.ev_read.append(bkey[loads])
                if int(counts[_LWP]) or int(counts[_SWP]):
                    post = ((mc == _LWP) | (mc == _SWP)) & \
                        (ops_m[:, 2] > 0)
                    regs[mu[post], ops_m[:, 2][post]] = (
                        maddr[post] + ops_m[:, 4][post]
                    ) & _MASK
                if full:
                    pc[mu] = pp + 1
                else:
                    pc[mu] = pp[im] + 1
                if n_st == 0:
                    dur = lat
                else:
                    usl = self.u_store_lat
                    sdur = (max(usl, 1) if usl is not None
                            else np.maximum(self.store_lat_u[mu], 1))
                    dur = sdur if n_st == n_mem else \
                        np.where(is_store, sdur, lat)
                if full:
                    nt = mt + dur
                else:
                    nt[im] = mt + dur

            # advance or park: sleeps that stay inside the horizon are
            # folded (the wake visit's gap accounting happens now);
            # sleeps that would cross it keep their serial sleep state.
            n_load = int(counts[_LW]) + int(counts[_LWP])
            m_slow = m_taken
            if n_mem and self.turbo_store_slow and \
                    int(counts[_SW]) + int(counts[_SWP]):
                ss = ((c == _SW) | (c == _SWP)) & (nt - t > 1)
                m_slow = ss if m_slow is None else m_slow | ss
            t_hi += md
            cross = None
            if t_hi >= max_cycles:
                cross = nt >= max_cycles
                if not cross.any():
                    cross = None
                    t_hi = int(nt.max())
            if cross is None:
                # fast path: nothing reaches the horizon this step
                if n_load == u.size:  # lockstep all-load step
                    extra = nt - t - 1
                    fold = extra > 0
                    self.st_load[u[fold]] += extra[fold]
                    self.stall_until[u] = nt  # serial wake visit's
                    self.pend_data[u] = ldata  # pending-load commit;
                    w = ops[:, 1] > 0  # stale trail as the serial
                    regs[u[w], ops[:, 1][w]] = ldata[w]  # engine leaves
                elif n_load:
                    m_load = (c == _LW) | (c == _LWP)
                    extra = nt - t - 1
                    fold = m_load & (extra > 0)
                    self.st_load[u[fold]] += extra[fold]
                    xu = u[m_load]
                    self.stall_until[xu] = nt[m_load]
                    self.pend_data[xu] = ldata[m_load]
                    w = m_load & (ops[:, 1] > 0)
                    regs[u[w], ops[:, 1][w]] = ldata[w]
                if m_slow is not None:
                    fu = u[m_slow]
                    self.st_store[fu] += (nt - t - 1)[m_slow]
                    self.stall_until[fu] = nt[m_slow]
                t = nt
                continue
            go = ~cross
            extra = nt - t - 1
            m_load = None
            if n_load:
                m_load = (c == _LW) | (c == _LWP)
                fold = go & m_load & (extra > 0)
                self.st_load[u[fold]] += extra[fold]
                lc = go & m_load
                xu = u[lc]
                self.stall_until[xu] = nt[lc]
                self.pend_data[xu] = ldata[lc]
                w = lc & (ops[:, 1] > 0)
                regs[u[w], ops[:, 1][w]] = ldata[w]
            if m_slow is not None:
                fold = go & m_slow
                fu = u[fold]
                self.st_store[fu] += extra[fold]
                self.stall_until[fu] = nt[fold]
            cu = u[cross]
            self.last_step[cu] = t[cross]
            if m_load is not None:
                cl = cross & m_load
                if cl.any():
                    xu = u[cl]
                    state[xu] = _WMEM
                    self.pend_reg[xu] = ops[:, 1][cl]
                    self.pend_data[xu] = ldata[cl]
                    reason[xu] = _R_LOAD
                    self.stall_until[xu] = nt[cl]
            if m_slow is not None:
                cs = cross & m_slow
                if cs.any():
                    xu = u[cs]
                    state[xu] = _WMEM
                    reason[xu] = _R_STORE
                    self.stall_until[xu] = nt[cs]
            self._push_batch(cu, nt[cross])
            u = u[go]
            pi = pi[go]
            t = nt[go]

    # ------------------------------------------------------------------
    def _vector_cycle(self, cycle: int, due: np.ndarray,
                      gathered: tuple) -> None:
        """One fleet cycle over vector-safe lanes, as array operations.

        Precondition (checked by :meth:`_dispatch`): every due unit is
        RUN/WMEM, fetches a non-barrier non-halt opcode, and no memory
        access faults — so the only cross-unit state is port and bank
        arbitration, resolved below in ascending-unit order.
        """
        d = due
        p, ops, code, is_mem, addr, ops_m = gathered
        regs = self.regs
        pc = self.pc
        state = self.state
        reason = self.reason
        pend_reg = self.pend_reg
        pend_data = self.pend_data
        stall_until = self.stall_until
        st_instr = self.st_instr
        st_conflict = self.st_conflict
        qnext = self._qnext
        sleep_units: list = []
        sleep_wakes: list = []

        # 1. log slept-through cycles; folded into the stall stats in
        # one pass per lane retirement (_flush_events), not per cycle
        gap = cycle - self.last_step[d] - 1
        has_gap = gap > 0
        if has_gap.any():
            gu = d[has_gap]
            self.ev_gap_u.append(gu)
            self.ev_gap_v.append(gap[has_gap])
            self.ev_gap_r.append(reason[gu])
            # hazard/full/fence reasons are scoreboard-only; snitch
            # lanes (the only fleet admits) never sleep with them
        self.last_step[d] = cycle

        # 2. commit pending loads (WMEM wake-up), then everyone runs
        wm = state[d] == _WMEM
        if wm.any():
            wu = d[wm]
            pend = pend_reg[wu]
            writes = pend > 0
            if writes.any():
                regs[wu[writes], pend[writes]] = pend_data[wu[writes]]
            pend_reg[wu] = -1  # writing -1 over -1 is harmless
        state[d] = _RUN

        # 3. hot i-cache: every fetch is a hit, counted in bulk
        if self.hot_all:
            self.fetch_hits[d] += 1
        elif not self.hot_none:
            hot = self.ic_hot_u[d]
            if hot.any():
                self.fetch_hits[d[hot]] += 1

        # 4. order by opcode: the stable sort keeps ascending unit
        # order inside every class, so contiguous class slices replace
        # full-width masks for the non-memory work below.  Units never
        # depend on each other's registers within a cycle (each runs
        # exactly one op on its own file), so class order is free.
        osort = np.argsort(code, kind="stable")
        d_s = d[osort]
        p_s = p[osort]
        ops_s = ops[osort]
        e = np.searchsorted(code[osort], _EDGES)

        # 5. ALU / jumps / CSRR (everything but memory and branches)
        a0, a1 = e[_LI], e[_LI + 1]
        if a1 > a0:
            dg = d_s[a0:a1]
            og = ops_s[a0:a1]
            w = og[:, 1] > 0
            regs[dg[w], og[:, 1][w]] = og[:, 4][w] & _MASK
        a0, a1 = e[_ADD], e[_ADD + 1]
        if a1 > a0:
            dg = d_s[a0:a1]
            og = ops_s[a0:a1]
            val = regs[dg, og[:, 2]] + regs[dg, og[:, 3]]
            w = og[:, 1] > 0
            regs[dg[w], og[:, 1][w]] = val[w] & _MASK
        a0, a1 = e[_SUB], e[_SUB + 1]
        if a1 > a0:
            dg = d_s[a0:a1]
            og = ops_s[a0:a1]
            val = regs[dg, og[:, 2]] - regs[dg, og[:, 3]]
            w = og[:, 1] > 0
            regs[dg[w], og[:, 1][w]] = val[w] & _MASK
        a0, a1 = e[_ADDI], e[_ADDI + 1]
        if a1 > a0:
            dg = d_s[a0:a1]
            og = ops_s[a0:a1]
            val = regs[dg, og[:, 2]] + og[:, 4]
            w = og[:, 1] > 0
            regs[dg[w], og[:, 1][w]] = val[w] & _MASK
        a0, a1 = e[_MUL], e[_MAC + 1]
        if a1 > a0:  # MUL and MAC share the signed-product core
            dg = d_s[a0:a1]
            og = ops_s[a0:a1]
            val = _signed32(regs[dg, og[:, 2]]) * \
                _signed32(regs[dg, og[:, 3]])
            mac = og[:, 0] == _MAC
            if mac.any():
                val[mac] += regs[dg[mac], og[:, 1][mac]]
            w = og[:, 1] > 0
            regs[dg[w], og[:, 1][w]] = val[w] & _MASK
        a0, a1 = e[_CSRR], e[_CSRR + 1]
        if a1 > a0:
            dg = d_s[a0:a1]
            og = ops_s[a0:a1]
            w = og[:, 1] > 0
            regs[dg[w], og[:, 1][w]] = self.core_id_u[dg[w]]
        a0, a1 = e[_J], e[_J + 1]
        if a1 > a0:
            dg = d_s[a0:a1]
            pc[dg] = ops_s[a0:a1, 5]
            qnext.append(dg)
        # sequential pc advance for ALU and CSRR/NOP slices
        for a0, a1 in ((e[_LI], e[_LW]), (e[_CSRR], e[_HALT])):
            if a1 > a0:
                dg = d_s[a0:a1]
                pc[dg] = p_s[a0:a1] + 1
                qnext.append(dg)
        # every non-memory opcode retires this cycle
        a0, a1 = e[_LI], e[_LW]
        if a1 > a0:
            st_instr[d_s[a0:a1]] += 1
        a0 = e[_BNE]
        if a0 < d_s.size:
            st_instr[d_s[a0:]] += 1

        # 6. branches: taken costs a 2-cycle shadow
        a0, a1 = e[_BNE], e[_J]
        if a1 > a0:
            dg = d_s[a0:a1]
            og = ops_s[a0:a1]
            av = _signed32(regs[dg, og[:, 2]])
            bv = _signed32(regs[dg, og[:, 3]])
            taken = np.where(og[:, 0] == _BNE, av != bv, av < bv)
            not_taken = dg[~taken]
            if not_taken.size:
                pc[not_taken] = p_s[a0:a1][~taken] + 1
                qnext.append(not_taken)
            tk = dg[taken]
            if tk.size:
                self.st_branch[tk] += 1
                pend_reg[tk] = -1
                state[tk] = _WMEM
                stall_until[tk] = cycle + 2
                reason[tk] = _R_STORE
                pc[tk] = og[:, 5][taken]
                sleep_units.append(tk)
                sleep_wakes.append(np.full(tk.size, cycle + 2, dtype=_I64))

        # 7. memory: joint port + bank arbitration in unit order
        if addr is not None:
            mu = d[is_mem]
            code_m = ops_m[:, 0]
            rd_m = ops_m[:, 1]
            rs1_m = ops_m[:, 2]
            rs2_m = ops_m[:, 3]
            imm_m = ops_m[:, 4]
            p_m = p[is_mem]
            word = addr >> 2
            top = int(word.max())
            if top >= self.mem_width:
                self._grow_mem(top)
            mem_img = self.mem_img
            bpt = self.u_bpt
            if bpt is None:
                bpt = self.bpt_u[mu]
            ntiles = self.u_ntiles
            if ntiles is None:
                ntiles = self.ntiles_u[mu]
            bank = word % bpt
            tile = (word // bpt) % ntiles
            flat = tile * bpt + bank
            lanes = self.lane_u[mu]
            src = self.src_tile_u[mu]
            remote = tile != src
            passed = np.ones(mu.size, dtype=bool)

            if remote.any():
                ridx = np.flatnonzero(remote)
                rl = lanes[ridx]
                rt = tile[ridx]
                # first remote attempt of the cycle resets a lane's
                # port-claim window, exactly like the serial clear
                stale = self.port_cur_l[rl] != cycle
                if stale.any():
                    reset = np.unique(rl[stale])
                    self.port_use[reset, :] = 0
                    self.port_cur_l[reset] = cycle
                # rank = how many earlier units this cycle already
                # claimed the same (lane, tile) port; the serial pass
                # admits attempts while claims stay under the limit
                key = rl * self.tmax + rt
                order = np.argsort(key, kind="stable")
                sorted_key = key[order]
                head = np.empty(sorted_key.size, dtype=bool)
                head[0] = True
                head[1:] = sorted_key[1:] != sorted_key[:-1]
                starts = np.flatnonzero(head)
                group = np.cumsum(head) - 1
                rank_sorted = np.arange(sorted_key.size) - starts[group]
                rank = np.empty_like(rank_sorted)
                rank[order] = rank_sorted
                rp = self.u_rports
                if rp is None:
                    rp = self.rports_l[rl]
                ok = self.port_use[rl, rt] + rank < rp
                fail = ~ok
                if fail.any():
                    self.ev_port_conf.append(rl[fail])
                    fu = mu[ridx[fail]]
                    st_conflict[fu] += 1
                    qnext.append(fu)
                    passed[ridx[fail]] = False
                if ok.any():
                    np.add.at(self.port_use, (rl[ok], rt[ok]), 1)

            pidx = np.flatnonzero(passed)
            pl = lanes[pidx]
            pfb = flat[pidx]
            pw = word[pidx]
            bkey = pl * self.bmax + pfb
            _uniq, first = np.unique(bkey, return_index=True)
            is_first = np.zeros(bkey.size, dtype=bool)
            is_first[first] = True
            win = is_first & (self.bank_busy[pl, pfb] != cycle)
            lose = ~win
            if lose.any():
                self.ev_bank_conf.append(bkey[lose])
                lu = mu[pidx[lose]]
                st_conflict[lu] += 1
                qnext.append(lu)
            widx = pidx[win]
            if widx.size:
                wl = pl[win]
                wfb = pfb[win]
                ww = pw[win]
                wu = mu[widx]
                self.bank_busy[wl, wfb] = cycle
                wbkey = bkey[win]
                cw = code_m[widx]
                is_store = (cw == _SW) | (cw == _SWP)
                if is_store.any():
                    sl = wl[is_store]
                    sw = ww[is_store]
                    # store value read here, before the post-increment
                    # below can clobber rs2 (swp with rs1 == rs2)
                    sval = regs[wu[is_store], rs2_m[widx][is_store]]
                    mem_img[sl, sw] = sval & _MASK
                    self.dirty[sl, sw] = True
                    self.ev_write.append(wbkey[is_store])
                loads = ~is_store
                data = None
                if loads.any():
                    data = mem_img[wl[loads], ww[loads]]
                    self.ev_read.append(wbkey[loads])
                wt = tile[widx]
                ws = src[widx]
                local = wt == ws
                tkey = wl * self.tmax + wt
                if local.any():
                    self.ev_local.append(tkey[local])
                far = ~local
                tpg = self.u_tpg
                if tpg is None:
                    tpg = self.tpg_u[wu]
                in_group = far & (wt // tpg == self.src_group_u[wu])
                in_cluster = far & ~in_group
                if far.any():
                    self.ev_group.append(tkey[in_group])
                    self.ev_cluster.append(tkey[in_cluster])
                if self.u_lat is not None:
                    ul, ug, uc = self.u_lat
                    lat = np.where(local, ul, np.where(in_group, ug, uc))
                else:
                    lat = np.where(
                        local, self.lat_local_u[wu],
                        np.where(in_group, self.lat_group_u[wu],
                                 self.lat_cluster_u[wu]),
                    )
                post = ((cw == _LWP) | (cw == _SWP)) & (rs1_m[widx] > 0)
                if post.any():
                    regs[wu[post], rs1_m[widx][post]] = (
                        addr[widx][post] + imm_m[widx][post]
                    ) & _MASK
                st_instr[wu] += 1
                pc[wu] = p_m[widx] + 1
                if is_store.any():
                    su = wu[is_store]
                    usl = self.u_store_lat
                    if usl is not None:
                        if usl <= 1:
                            qnext.append(su)
                        else:
                            pend_reg[su] = -1
                            state[su] = _WMEM
                            stall_until[su] = cycle + usl
                            reason[su] = _R_STORE
                            sleep_units.append(su)
                            sleep_wakes.append(
                                np.full(su.size, cycle + usl, dtype=_I64)
                            )
                    else:
                        slat = self.store_lat_u[su]
                        quick = slat <= 1
                        if quick.any():
                            qnext.append(su[quick])
                        slow = ~quick
                        if slow.any():
                            du = su[slow]
                            pend_reg[du] = -1
                            state[du] = _WMEM
                            stall_until[du] = cycle + slat[slow]
                            reason[du] = _R_STORE
                            sleep_units.append(du)
                            sleep_wakes.append(cycle + slat[slow])
                if loads.any():
                    lu = wu[loads]
                    pend_reg[lu] = rd_m[widx][loads]
                    pend_data[lu] = data
                    state[lu] = _WMEM
                    llat = lat[loads]
                    stall_until[lu] = cycle + llat
                    reason[lu] = _R_LOAD
                    sleep_units.append(lu)
                    sleep_wakes.append(cycle + llat)

        if sleep_units:
            self._push_batch(
                np.concatenate(sleep_units), np.concatenate(sleep_wakes)
            )

    # ------------------------------------------------------------------
    def _scalar_cycle(self, cycle: int, due: np.ndarray) -> None:
        """Per-unit port of the fast engine's snitch step.

        Runs whole cycles that involve barriers, halts, program ends or
        faults; mirrors the serial visit order (ascending flat unit id,
        with barrier releases insorted mid-cycle) and the serial
        accounting bit for bit.  A faulting unit aborts only its lane.
        """
        regs = self.regs
        pc = self.pc
        state = self.state
        wake = self.wake
        reason = self.reason
        last_step = self.last_step
        stall_until = self.stall_until
        pend_reg = self.pend_reg
        pend_data = self.pend_data
        dead_u = self.dead_u
        lane_u = self.lane_u
        plen_u = self.plen_u
        op_code = self.op_code
        op_rd = self.op_rd
        op_rs1 = self.op_rs1
        op_rs2 = self.op_rs2
        op_imm = self.op_imm
        op_tgt = self.op_tgt
        qnext = self._qnext
        mem_img = self.mem_img
        halted_by_lane: dict[int, int] = {}

        queue = due.tolist()
        qi = 0
        while qi < len(queue):
            i = queue[qi]
            qi += 1
            if dead_u[i]:
                continue
            lane = int(lane_u[i])
            try:
                # gap folding (see FastEngine.run for the reasoning)
                gap = cycle - int(last_step[i]) - 1
                if gap > 0:
                    why = int(reason[i])
                    if why == _R_LOAD or why == _R_DRAIN:
                        self.st_load[i] += gap
                    elif why == _R_STORE:
                        self.st_store[i] += gap
                    elif why == _R_BAR:
                        self.st_bar[i] += gap
                    elif why == _R_ICW:
                        self.st_ic[i] += gap
                    else:
                        self.st_load[i] += gap
                        if self.ic_hot_u[i]:
                            self.fetch_hits[i] += gap
                last_step[i] = cycle

                s = int(state[i])
                if s == _WBAR:
                    released = self.release_u[i]
                    if released is None or not released():
                        self.st_bar[i] += 1
                        reason[i] = _R_BAR
                        wake[i] = _INF
                        continue
                    s = _RUN
                    state[i] = _RUN

                if s == _WMEM:
                    loaded = int(pend_reg[i])
                    if loaded >= 0:
                        if loaded:
                            regs[i, loaded] = pend_data[i]
                        pend_reg[i] = -1
                    state[i] = _RUN
                p = int(pc[i])
                if p >= plen_u[i]:
                    state[i] = _HALTED
                    wake[i] = _INF
                    halted_by_lane[lane] = halted_by_lane.get(lane, 0) + 1
                    continue
                if self.ic_hot_u[i]:
                    self.fetch_hits[i] += 1
                prog = int(self.prog_u[i])
                code = int(op_code[prog, p])

                if _LW <= code <= _SWP:
                    is_store = code == _SW or code == _SWP
                    rs1 = int(op_rs1[prog, p])
                    imm = int(op_imm[prog, p])
                    if code == _LW or code == _SW:
                        address = (int(regs[i, rs1]) + imm) & _MASK
                    else:
                        address = int(regs[i, rs1])
                    if address < 0 or address >= self.spm_u[i]:
                        raise ValueError(
                            f"address {address:#x} outside SPM"
                        )
                    if address & 3:
                        raise ValueError(
                            f"address {address:#x} is not word-aligned"
                        )
                    word = address >> 2
                    bpt = int(self.bpt_u[i])
                    tile = (word // bpt) % int(self.ntiles_u[i])
                    src_tile = int(self.src_tile_u[i])
                    if tile != src_tile:
                        if cycle != self.port_cur_l[lane]:
                            self.port_use[lane, :] = 0
                            self.port_cur_l[lane] = cycle
                        used = int(self.port_use[lane, tile])
                        if used >= self.rports_l[lane]:
                            self.port_conf_l[lane] += 1
                            self.st_conflict[i] += 1
                            qnext.append(i)
                            continue
                        self.port_use[lane, tile] = used + 1
                    flat_bank = tile * bpt + word % bpt
                    if self.bank_busy[lane, flat_bank] == cycle:
                        self.b_conf[lane, flat_bank] += 1
                        self.bank_conf_l[lane] += 1
                        self.st_conflict[i] += 1
                        qnext.append(i)
                        continue
                    self.bank_busy[lane, flat_bank] = cycle
                    if word >= self.mem_width:
                        self._grow_mem(word)
                        mem_img = self.mem_img
                    if is_store:
                        rs2 = int(op_rs2[prog, p])
                        mem_img[lane, word] = int(regs[i, rs2]) & _MASK
                        self.dirty[lane, word] = True
                        self.b_writes[lane, flat_bank] += 1
                        data = 0
                    else:
                        data = int(mem_img[lane, word])
                        self.b_reads[lane, flat_bank] += 1
                    if tile == src_tile:
                        self.local_req[lane, tile] += 1
                        self.local_acc_l[lane] += 1
                        lat = int(self.lat_local_u[i])
                    else:
                        self.remote_in[lane, tile] += 1
                        if tile // int(self.tpg_u[i]) == self.src_group_u[i]:
                            self.group_acc_l[lane] += 1
                            lat = int(self.lat_group_u[i])
                        else:
                            self.cluster_acc_l[lane] += 1
                            lat = int(self.lat_cluster_u[i])
                    if (code == _LWP or code == _SWP) and rs1:
                        regs[i, rs1] = (int(regs[i, rs1]) + imm) & _MASK
                    self.st_instr[i] += 1
                    pc[i] = p + 1
                    if is_store:
                        latency = int(self.store_lat_u[i])
                        if latency > 1:
                            pend_reg[i] = -1
                            state[i] = _WMEM
                            stall_until[i] = cycle + latency
                            reason[i] = _R_STORE
                            self._push(i, cycle + latency)
                        else:
                            qnext.append(i)
                    else:
                        pend_reg[i] = int(op_rd[prog, p])
                        pend_data[i] = data
                        state[i] = _WMEM
                        stall_until[i] = cycle + lat
                        reason[i] = _R_LOAD
                        self._push(i, cycle + lat)
                    continue

                rd = int(op_rd[prog, p])
                if code == _BARRIER:
                    self.st_instr[i] += 1
                    pc[i] = p + 1
                    self._arrive_at_barrier(i, cycle, queue)
                elif code == _HALT:
                    self.st_instr[i] += 1
                    state[i] = _HALTED
                    wake[i] = _INF
                    halted_by_lane[lane] = halted_by_lane.get(lane, 0) + 1
                elif code == _BNE or code == _BLT:
                    a = int(regs[i, int(op_rs1[prog, p])])
                    b = int(regs[i, int(op_rs2[prog, p])])
                    if a & 0x80000000:
                        a -= 0x100000000
                    if b & 0x80000000:
                        b -= 0x100000000
                    taken = (a != b) if code == _BNE else (a < b)
                    self.st_instr[i] += 1
                    if taken:
                        self.st_branch[i] += 1
                        pend_reg[i] = -1
                        state[i] = _WMEM
                        stall_until[i] = cycle + 2
                        reason[i] = _R_STORE
                        pc[i] = int(op_tgt[prog, p])
                        self._push(i, cycle + 2)
                    else:
                        pc[i] = p + 1
                        qnext.append(i)
                else:
                    if code == _LI:
                        if rd:
                            regs[i, rd] = int(op_imm[prog, p]) & _MASK
                    elif code == _CSRR:
                        if rd:
                            regs[i, rd] = self.core_id_u[i]
                    elif code == _J:
                        pc[i] = int(op_tgt[prog, p])
                        self.st_instr[i] += 1
                        qnext.append(i)
                        continue
                    elif code != _NOP:
                        a = int(regs[i, int(op_rs1[prog, p])])
                        b = int(regs[i, int(op_rs2[prog, p])])
                        if code == _ADD:
                            value = a + b
                        elif code == _SUB:
                            value = a - b
                        elif code == _ADDI:
                            value = a + int(op_imm[prog, p])
                        else:  # _MUL / _MAC
                            if a & 0x80000000:
                                a -= 0x100000000
                            if b & 0x80000000:
                                b -= 0x100000000
                            value = a * b
                            if code == _MAC:
                                value += int(regs[i, rd])
                        if rd:
                            regs[i, rd] = value & _MASK
                    self.st_instr[i] += 1
                    pc[i] = p + 1
                    qnext.append(i)
            except Exception as exc:  # fault: abort this lane only
                self._abort_lane(lane, cycle, exc)

        # end of cycle: prune halted cores lane by lane, keep each
        # lane's barrier sane, retire lanes whose last core halted
        for lane, count in halted_by_lane.items():
            if self.lane_done[lane]:
                continue
            alive = self.alive_l[lane]
            alive[:] = [k for k in alive if state[k] != _HALTED]
            self.lane_alive[lane] = len(alive)
            barrier = self.barriers[lane]
            episodes = barrier.episodes
            barrier.reduce_parties(count)
            if barrier.episodes != episodes:
                for k in alive:
                    if state[k] == _WBAR and wake[k] > cycle + 1:
                        released = self.release_u[k]
                        if released is not None and released():
                            self._push(k, cycle + 1)
            if not alive:
                self._retire_lane(lane, cycle)

    # ------------------------------------------------------------------
    def _arrive_at_barrier(self, i: int, at: int, queue: list) -> None:
        """BARRIER retirement; see FastEngine.arrive_at_barrier."""
        state = self.state
        wake = self.wake
        release = self.release_u
        arrive = self.arrives_u[i]
        state[i] = _WBAR
        self.reason[i] = _R_BAR
        if arrive is None:
            release[i] = _always_released
            self._push(i, at + 1)
            return
        released = arrive(int(self.core_id_u[i]))
        release[i] = released
        if released():
            self._push(i, at + 1)
            for k in self.alive_l[int(self.lane_u[i])]:
                if k != i and state[k] == _WBAR and wake[k] > at:
                    other = release[k]
                    if other is not None and other():
                        if k > i:
                            wake[k] = at
                            insort(queue, k)
                        else:
                            self._push(k, at + 1)
        else:
            wake[i] = _INF

    # ------------------------------------------------------------------
    def _accrue_lane(self, lane: int, bound: int) -> None:
        """Fold idle cycles up to ``bound`` into the lane's stall stats
        (the fast engine's timeout/fault accrual, one lane)."""
        self._flush_events()  # pending gap logs also target st_* planes
        start = self.off_l[lane]
        units = np.arange(start, start + self.count_l[lane], dtype=_I64)
        units = units[self.state[units] != _HALTED]
        gap = (bound - 1) - self.last_step[units]
        has = gap > 0
        units = units[has]
        gap = gap[has]
        if not units.size:
            return
        why = self.reason[units]
        m = (why == _R_LOAD) | (why == _R_DRAIN)
        self.st_load[units[m]] += gap[m]
        m = why == _R_STORE
        self.st_store[units[m]] += gap[m]
        m = why == _R_BAR
        self.st_bar[units[m]] += gap[m]
        m = why == _R_ICW
        self.st_ic[units[m]] += gap[m]

    # ------------------------------------------------------------------
    def _retire_lane(self, lane: int, cycle: int) -> None:
        """All cores halted: write back and record the lane's result."""
        self._write_back_lane(lane, idle_cycles=cycle + 1)
        start = self.off_l[lane]
        span = slice(start, start + self.count_l[lane])
        self.outcomes[lane] = LaneOutcome(result=SimulationResult(
            cycles=cycle + 1,
            instructions=int(self.st_instr[span].sum()),
            barrier_episodes=self.barriers[lane].episodes,
        ))
        self._mark_done(lane)

    def _abort_lane(self, lane: int, cycle: int,
                    exc: BaseException) -> None:
        """A fault aborted this lane mid-cycle; mirror progress back."""
        self._accrue_lane(lane, cycle)
        self._write_back_lane(lane, idle_cycles=cycle)
        self.outcomes[lane] = LaneOutcome(error=exc)
        self._mark_done(lane)

    def _timeout_lane(self, lane: int) -> None:
        """Lane still running at the cycle limit: fast-engine timeout."""
        max_cycles = self.max_cycles
        self._accrue_lane(lane, max_cycles)
        self._write_back_lane(lane, idle_cycles=max_cycles)
        self.outcomes[lane] = LaneOutcome(error=SimulationTimeout(
            f"{self.lane_alive[lane]} cores still running after "
            f"{max_cycles} cycles"
        ))
        self._mark_done(lane)

    def _mark_done(self, lane: int) -> None:
        start = self.off_l[lane]
        self.dead_u[start:start + self.count_l[lane]] = True
        self.any_dead = True
        self.lane_done[lane] = True
        self.pending_lanes -= 1

    # ------------------------------------------------------------------
    def _flush_events(self) -> None:
        """Fold the deferred access logs into the counter planes."""
        nlanes = self.nlanes
        bmax = self.bmax
        tmax = self.tmax

        def drain(logs: list, size: int):
            if not logs:
                return None
            keys = logs[0] if len(logs) == 1 else np.concatenate(logs)
            logs.clear()
            return np.bincount(keys, minlength=size)

        hits = drain(self.ev_port_conf, nlanes)
        if hits is not None:
            self.port_conf_l += hits
        hits = drain(self.ev_bank_conf, nlanes * bmax)
        if hits is not None:
            hits = hits.reshape(nlanes, bmax)
            self.b_conf += hits
            self.bank_conf_l += hits.sum(axis=1)
        hits = drain(self.ev_read, nlanes * bmax)
        if hits is not None:
            self.b_reads += hits.reshape(nlanes, bmax)
        hits = drain(self.ev_write, nlanes * bmax)
        if hits is not None:
            self.b_writes += hits.reshape(nlanes, bmax)
        hits = drain(self.ev_local, nlanes * tmax)
        if hits is not None:
            hits = hits.reshape(nlanes, tmax)
            self.local_req += hits
            self.local_acc_l += hits.sum(axis=1)
        hits = drain(self.ev_group, nlanes * tmax)
        if hits is not None:
            hits = hits.reshape(nlanes, tmax)
            self.remote_in += hits
            self.group_acc_l += hits.sum(axis=1)
        hits = drain(self.ev_cluster, nlanes * tmax)
        if hits is not None:
            hits = hits.reshape(nlanes, tmax)
            self.remote_in += hits
            self.cluster_acc_l += hits.sum(axis=1)

        if self.ev_gap_u:
            gu = np.concatenate(self.ev_gap_u)
            gv = np.concatenate(self.ev_gap_v)
            gr = np.concatenate(self.ev_gap_r)
            self.ev_gap_u.clear()
            self.ev_gap_v.clear()
            self.ev_gap_r.clear()
            m = (gr == _R_LOAD) | (gr == _R_DRAIN)
            if m.any():
                np.add.at(self.st_load, gu[m], gv[m])
            m = gr == _R_STORE
            if m.any():
                np.add.at(self.st_store, gu[m], gv[m])
            m = gr == _R_BAR
            if m.any():
                np.add.at(self.st_bar, gu[m], gv[m])
            m = gr == _R_ICW
            if m.any():
                np.add.at(self.st_ic, gu[m], gv[m])

    # ------------------------------------------------------------------
    def _write_back_lane(self, lane: int, idle_cycles: int) -> None:
        """Mirror one lane's SoA state back onto its cluster objects."""
        self._flush_events()
        cluster = self.clusters[lane]
        banks = self.flat_banks_l[lane]
        stride = self.stride_py[lane]
        words = np.flatnonzero(self.dirty[lane])
        values = self.mem_img[lane, words].tolist()
        for word, value in zip(words.tolist(), values):
            banks[word % stride].poke(word // stride, value)
        busy = self.bank_busy[lane].tolist()
        reads = self.b_reads[lane].tolist()
        writes = self.b_writes[lane].tolist()
        confs = self.b_conf[lane].tolist()
        for bank, b, rd, wr, cf in zip(banks, busy, reads, writes, confs):
            bank._busy_cycle = b  # property bypass: hot over nbanks
            if rd or wr or cf:
                stats = bank.stats
                if rd:
                    stats.reads += rd
                if wr:
                    stats.writes += wr
                if cf:
                    stats.conflicts += cf
        local_req = self.local_req[lane].tolist()
        remote_in = self.remote_in[lane].tolist()
        for tile_id, tile in enumerate(cluster.tiles):
            if local_req[tile_id]:
                tile.port_stats.local_requests += local_req[tile_id]
            if remote_in[tile_id]:
                tile.port_stats.remote_in_requests += remote_in[tile_id]
        router = cluster.router
        router.stats.local_accesses += int(self.local_acc_l[lane])
        router.stats.group_accesses += int(self.group_acc_l[lane])
        router.stats.cluster_accesses += int(self.cluster_acc_l[lane])
        router.stats.bank_conflicts += int(self.bank_conf_l[lane])
        router.stats.port_conflicts += int(self.port_conf_l[lane])
        router.import_port_state(int(self.port_cur_l[lane]), {
            tile: used
            for tile, used in enumerate(self.port_use[lane].tolist())
            if used
        })
        start = self.off_l[lane]
        span = slice(start, start + self.count_l[lane])
        pcs = self.pc[span].tolist()
        states = self.state[span].tolist()
        stalls = self.stall_until[span].tolist()
        pends = self.pend_reg[span].tolist()
        pdata = self.pend_data[span].tolist()
        hits = self.fetch_hits[span].tolist()
        lasts = self.last_step[span].tolist()
        instr = self.st_instr[span].tolist()
        loads = self.st_load[span].tolist()
        stores = self.st_store[span].tolist()
        bars = self.st_bar[span].tolist()
        ics = self.st_ic[span].tolist()
        branches = self.st_branch[span].tolist()
        conflicts = self.st_conflict[span].tolist()
        for local, core in enumerate(cluster.cores):
            unit = start + local
            pend = pends[local]
            core.import_state({
                "regs": self.regs[unit].tolist(),
                "pc": pcs[local],
                "state": _STATE_BACK[states[local]],
                "stall_until": stalls[local],
                "pending_load_reg": None if pend < 0 else pend,
                "pending_load_data": pdata[local],
                "barrier_release": self.release_u[unit],
            })
            if self.ic_hot_u[unit] and hits[local]:
                self.icaches_u[unit].stats.hits += hits[local]
            stats = core.stats
            if states[local] == _HALTED:
                stats.cycles += lasts[local] + 1
            else:
                stats.cycles += max(lasts[local] + 1, idle_cycles)
            stats.instructions += instr[local]
            stats.load_stall_cycles += loads[local]
            stats.store_stall_cycles += stores[local]
            stats.barrier_stall_cycles += bars[local]
            stats.icache_stall_cycles += ics[local]
            stats.branch_stall_cycles += branches[local]
            stats.conflict_retries += conflicts[local]
