"""Fast-path cluster simulation: SoA stepper with core run-ahead.

A drop-in replacement for the reference cycle-driven
:class:`repro.simulator.engine.Engine` that produces bit-identical results
(cycles, instructions, barrier episodes — and the per-core stall
breakdowns, fabric counters, and SPM contents) while running several
times faster:

* **Structure-of-arrays state.**  Core state lives in parallel arrays
  (program counters, register files, wake-up times, stall counters)
  instead of per-core objects, and the SPM is the cluster's own
  structure-of-arrays :class:`~repro.arch.spm.BankArray`, addressed by
  word index, so the hot loop runs without attribute churn, dataclass
  construction, or the router/tile/bank call chain of the reference
  model.
* **Read-through, write-back.**  A run writes nothing to the cluster
  before it ends.  Stores go to a run-local dict, which a load reads
  before the SPM's word dict (``words.get(word, 0)``); busy cycles and
  bank counters go to run-local lists.  At the end one dict update
  writes the stores back, one slice assignment the busy cycles, and
  three element-wise sums the counters.
* **Run-ahead stepping.**  Only loads, stores, barriers and halts touch
  state another core can see; ALU ops, jumps and branches are core-local
  (Snitch is single-issue and in order, and a load's data is read at
  issue).  So a visit to a plain :class:`SnitchCore` executes its shared
  op in its own cycle, then runs the core ahead through its local ops to
  the cycle of its next shared op, booking inline what the reference
  steps through cycle by cycle: a load's return stall and register
  write, store occupancy, and taken-branch shadows.  The next visit is
  scheduled for that cycle, so visits scale with memory ops and barriers,
  not with instructions.  Nothing runs at or past the cycle limit: a wait
  that reaches it sleeps in the reference's wait state, which keeps
  timeout accounting exact.  Cores on a simulated (cold) tile i-cache
  fetch in step order, so they run one instruction per visit, and
  :class:`ScoreboardSnitchCore` cores step one instruction per visit.
* **Event-driven schedule.**  Every core sits in a schedule keyed by the
  next cycle at which it can make progress (next shared op, load return,
  branch-shadow end, barrier release).  Stalled cores are never touched;
  their per-cycle stall accounting is applied in bulk when they wake,
  and stretches where every active core is stalled are jumped over
  instead of ticked through.
* **Hot-i-cache shortcut.**  When a tile i-cache provably cannot miss
  (all program lines resident, no eviction pressure — the paper's "hot
  instruction cache" setup), fetches are counted in bulk instead of
  simulated one lookup at a time.

Equivalence hinges on replicating the reference engine's intra-cycle
order: shared ops run only in their own cycle, and cores due in the same
cycle are visited in ascending core id, which is exactly the order the
reference steps them, so bank-conflict and remote-port arbitration
resolve identically.  A fault (a wild or unaligned address) replays the
run on the reference engine, so the cluster state it leaves is exactly
the reference's.  Configurations the fast model does not cover
(non-standard cores, custom memory ports or barriers, non-32-bit words)
are detected by :meth:`FastEngine.supports`, and
:func:`repro.simulator.engine.run_cluster` falls back to the reference
engine for them.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from operator import add

from ..arch.isa import Op, Program
from ..arch.scoreboard import ScoreboardSnitchCore
from ..arch.snitch import CoreState, SnitchCore
from .engine import Engine, SimulationResult, SimulationTimeout

# Integer opcodes of the decoded SoA program image.  The memory ops come
# first, so one comparison recognises each class: ``code <= _SWP`` a
# memory op, ``code <= _SW`` its immediate-offset form, ``code & 1`` a
# store.
(_LW, _SW, _LWP, _SWP, _ADD, _LI, _MUL, _MAC, _BNE, _BLT, _ADDI, _SUB,
 _J, _CSRR, _NOP, _BARRIER, _HALT) = range(17)

_CODE = {
    Op.LI: _LI, Op.ADD: _ADD, Op.SUB: _SUB, Op.ADDI: _ADDI, Op.MUL: _MUL,
    Op.MAC: _MAC, Op.LW: _LW, Op.SW: _SW, Op.LW_POSTINC: _LWP,
    Op.SW_POSTINC: _SWP, Op.BNE: _BNE, Op.BLT: _BLT, Op.J: _J,
    Op.BARRIER: _BARRIER, Op.CSRR_HARTID: _CSRR, Op.NOP: _NOP,
    Op.HALT: _HALT,
}

# Core states, int-coded for the SoA arrays.
_RUN, _WMEM, _WBAR, _HALTED = range(4)
_STATE_BACK = {
    _RUN: CoreState.RUNNING,
    _WMEM: CoreState.WAIT_MEMORY,
    _WBAR: CoreState.WAIT_BARRIER,
    _HALTED: CoreState.HALTED,
}

# Sleep reasons: which stall counter the skipped cycles fold into, and
# whether the reference would have re-fetched (i-cache hit) each cycle.
(_R_NONE, _R_LOAD, _R_STORE, _R_BAR, _R_ICW, _R_HAZ, _R_FULL, _R_FENCE,
 _R_DRAIN) = range(9)

# I-cache handling per core: absent, provably-always-hit, or simulated.
_IC_NONE, _IC_HOT, _IC_SIM = range(3)

_INF = 1 << 62
_MASK = 0xFFFFFFFF


def _always_released() -> bool:
    """Release predicate of an uncoordinated core (no barrier installed)."""
    return True


def _decode(program: Program) -> list[tuple]:
    """Flatten a program into ``(op, rd, rs1, rs2, imm, target, hazard)``
    tuples; ``hazard`` is the bitmask of registers the scoreboard model
    must check against in-flight loads (sources plus destinations)."""
    decoded = []
    for instr in program.instructions:
        hazard = 0
        for reg in ScoreboardSnitchCore._regs_read(instr):
            hazard |= 1 << reg
        for reg in ScoreboardSnitchCore._regs_written(instr):
            hazard |= 1 << reg
        decoded.append((
            _CODE[instr.op], instr.rd, instr.rs1, instr.rs2, instr.imm,
            instr.target, hazard,
        ))
    return decoded


class FastEngine:
    """Runs a loaded cluster to completion on the fast path.

    Same surface as the reference :class:`repro.simulator.engine.Engine`;
    construct only for clusters that :meth:`supports` accepts.

    Args:
        cluster: A cluster with a program loaded via
            :meth:`repro.arch.cluster.MemPoolCluster.load_program`.
        max_cycles: Safety limit; exceeded limits raise
            :class:`~repro.simulator.engine.SimulationTimeout`.
    """

    def __init__(self, cluster, max_cycles: int = 5_000_000) -> None:
        if max_cycles <= 0:
            raise ValueError("cycle limit must be positive")
        if not cluster.cores:
            raise ValueError("cluster has no program loaded")
        self.cluster = cluster
        self.max_cycles = max_cycles
        self.cycle = 0

    # ------------------------------------------------------------------
    @classmethod
    def supports(cls, cluster) -> bool:
        """Whether the fast model covers this cluster bit-for-bit.

        Requires stock :class:`SnitchCore`/:class:`ScoreboardSnitchCore`
        cores in hart-id order, fresh (running, no in-flight state),
        wired to the cluster's own fabric router and barrier, on a
        32-bit-word architecture.  Anything else — subclassed cores, DMA
        engines in the core list, custom memory ports or barriers —
        falls back to the reference engine.
        """
        arch = cluster.arch
        if arch.word_bytes != 4:
            return False
        cores = cluster.cores
        if not cores:
            return False
        router = getattr(cluster, "router", None)
        if router is None or not hasattr(router, "export_port_state"):
            return False
        barrier_arrive = cluster.barrier.arrive
        for index, core in enumerate(cores):
            kind = type(core)
            if kind is not SnitchCore and kind is not ScoreboardSnitchCore:
                return False
            if core.core_id != index or core.state is not CoreState.RUNNING:
                return False
            arrive = core.barrier_arrive
            if arrive is not None and arrive != barrier_arrive:
                return False
            port = core.memory_port
            if getattr(port, "fabric_router", None) is not router:
                return False
            if getattr(port, "fabric_core_id", None) != index:
                return False
            if kind is ScoreboardSnitchCore and core._pending:
                return False
        return True

    # ------------------------------------------------------------------
    @staticmethod
    def _classify_icaches(cores, programs) -> tuple[bool, list[int]]:
        """Per-core i-cache mode, plus whether skipped re-fetches may sleep.

        Returns ``(stable, modes)``.  ``stable`` means no fetched line
        can ever be evicted: each tile i-cache fits its current residents
        plus every line of the programs its cores run, so the re-fetches
        the reference performs during execute-path stalls (scoreboard
        hazard and fence retries) are guaranteed hits and the fast path
        may sleep through them.  A core's mode is :data:`_IC_HOT` when,
        additionally, all of its program lines are already resident — then
        every fetch is a hit and is counted in bulk instead of simulated.
        When ``stable`` does not hold, stall retries are revisited every
        cycle, replaying the reference's exact fetch sequence.
        """
        needed: dict[int, set[int]] = {}
        caches: dict[int, object] = {}
        for core, program in zip(cores, programs):
            icache = core.icache
            if icache is None:
                continue
            end = len(program) * 4
            lines = set(range(0, max(1, (end + icache.line_bytes - 1)
                                     // icache.line_bytes)))
            needed.setdefault(id(icache), set()).update(lines)
            caches[id(icache)] = icache
        stable = True
        for key, lines in needed.items():
            icache = caches[key]
            if len(lines | set(icache.resident_lines())) > icache.num_lines:
                stable = False
        modes = []
        for core, program in zip(cores, programs):
            icache = core.icache
            if icache is None:
                modes.append(_IC_NONE)
            elif stable and needed[id(icache)] <= set(icache.resident_lines()):
                modes.append(_IC_HOT)
            else:
                modes.append(_IC_SIM)
        return stable, modes

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate until every core halts.

        Returns:
            Aggregate cycle/instruction counts, bit-identical to the
            reference engine's.

        Raises:
            SimulationTimeout: If the cycle limit is exceeded.
            ValueError: On a wild or unaligned address, raised by the
                reference engine's replay of the run, whose state the
                cluster is left in.
        """
        cluster = self.cluster
        arch = cluster.arch
        cores = cluster.cores
        n = len(cores)
        barrier = cluster.barrier
        router = cluster.router
        memory_map = cluster.memory_map

        # -- geometry (plain ints for the hot loop) ---------------------
        bpt = arch.banks_per_tile
        ntiles = arch.num_tiles
        cpt = arch.cores_per_tile
        tpg = arch.tiles_per_group
        rports = arch.remote_ports_per_tile
        lat_local = arch.local_latency
        lat_group = arch.group_latency
        lat_cluster = arch.cluster_latency
        spm_bytes = memory_map.spm_bytes
        num_banks = arch.num_banks

        # -- SPM image and arbitration state ----------------------------
        # ``mem`` holds the words this run stores, by word index (the
        # byte address // 4, which is also the key of the cluster's SPM
        # word dict); a load reads ``mem`` first, then the SPM.  Nothing
        # is written to the cluster before the run ends, so a fault
        # leaves it as it was.
        mem: dict[int, int] = {}
        spm_get = cluster.spm.words.get
        bank_busy = cluster.spm.busy[:]
        b_reads = [0] * num_banks
        b_writes = [0] * num_banks
        b_conf = [0] * num_banks
        port_cur, port_use = router.export_port_state()
        local_req = [0] * ntiles
        remote_in = [0] * ntiles
        local_acc = group_acc = cluster_acc = bank_conf = port_conf = 0

        # -- per-core SoA state ------------------------------------------
        decoded: dict[int, list[tuple]] = {}
        programs = [core.program for core in cores]
        progs = []
        for program in programs:
            cached = decoded.get(id(program))
            if cached is None:
                cached = _decode(program)
                decoded[id(program)] = cached
            progs.append(cached)
        plen = [len(p) for p in progs]
        sb = [type(core) is ScoreboardSnitchCore for core in cores]
        regs = [list(core.regs) for core in cores]
        pc = [core.pc for core in cores]
        state = [_RUN] * n
        wake = [0] * n
        reason = [_R_NONE] * n
        last_step = [-1] * n
        stall_until = [0] * n
        pend_reg: list = [None] * n  # snitch: pending load destination
        pend_data = [0] * n
        pending: list[list] = [[] for _ in range(n)]  # scoreboard loads
        pend_mask = [0] * n
        release: list = [None] * n
        icaches = [core.icache for core in cores]
        store_lat = [getattr(core, "store_latency", 1) for core in cores]
        max_out = [
            getattr(core, "max_outstanding_loads", 0) for core in cores
        ]
        arrives = [core.barrier_arrive for core in cores]
        stable, ic_mode = self._classify_icaches(cores, programs)
        fetch_hits = [0] * n

        # The run mutates only the barrier and the simulated i-caches in
        # place; their entry state lets a fault replay from scratch.
        barrier_entry = barrier.export_state()
        icache_entry = [
            (icache, icache.export_state())
            for icache, mode in zip(icaches, ic_mode) if mode == _IC_SIM
        ]

        # -- per-core stat accumulators ----------------------------------
        st_instr = [0] * n
        st_load = [0] * n
        st_store = [0] * n
        st_bar = [0] * n
        st_ic = [0] * n
        st_branch = [0] * n
        st_conflict = [0] * n

        max_cycles = self.max_cycles
        alive = list(range(n))
        alive_count = n
        cycle = 0

        # -- wake-up schedule ---------------------------------------------
        # Cores due next cycle go straight onto ``queue_next`` (the hot
        # path: one list append).  Later visits land in ``sched[c]``
        # (cycle -> due cores) with ``heap`` holding the distinct cycles,
        # which is what makes quiescent stretches skippable.  Cores
        # waiting on a barrier carry wake == _INF and sit outside the
        # schedule until an arrival or a party reduction releases them;
        # ``wake`` is read only for such waiters.
        sched: dict[int, list[int]] = {0: list(range(n))}
        heap = [0]
        queue_next: list[int] = []

        def push(i, at):
            wake[i] = at
            entry = sched.get(at)
            if entry is None:
                sched[at] = [i]
                heappush(heap, at)
            else:
                entry.append(i)

        # -- fabric routing, inlined -------------------------------------
        def route(at, core_id, address, is_store, value):
            """One request through the fabric; mirrors FabricRouter.access."""
            nonlocal port_cur, local_acc, group_acc, cluster_acc
            nonlocal bank_conf, port_conf
            if address >= spm_bytes or address & 3:
                raise ValueError(f"address {address:#x} faults")
            word = address >> 2
            bank = word % bpt
            tile = (word // bpt) % ntiles
            src_tile = core_id // cpt
            if tile != src_tile:
                if at != port_cur:
                    port_use.clear()
                    port_cur = at
                used = port_use.get(tile, 0)
                if used >= rports:
                    port_conf += 1
                    return False, 0, 0
                port_use[tile] = used + 1
            flat_bank = tile * bpt + bank
            if bank_busy[flat_bank] == at:
                b_conf[flat_bank] += 1
                bank_conf += 1
                return False, 0, 0
            bank_busy[flat_bank] = at
            if is_store:
                mem[word] = value & _MASK
                b_writes[flat_bank] += 1
                data = 0
            else:
                data = mem.get(word)
                if data is None:
                    data = spm_get(word, 0)
                b_reads[flat_bank] += 1
            if tile == src_tile:
                local_req[tile] += 1
                local_acc += 1
                return True, lat_local, data
            remote_in[tile] += 1
            if tile // tpg == src_tile // tpg:
                group_acc += 1
                return True, lat_group, data
            cluster_acc += 1
            return True, lat_cluster, data

        def arrive_at_barrier(i, at, queue):
            """BARRIER retirement: arrive, then wake released waiters.

            Replicates the reference's intra-cycle order: waiters with a
            higher id are stepped after the arriver and run this cycle
            (inserted into the live queue); lower ids already polled and
            resume next cycle.
            """
            arrive = arrives[i]
            state[i] = _WBAR
            reason[i] = _R_BAR
            if arrive is None:
                release[i] = _always_released
                push(i, at + 1)
                return
            released = arrive(i)
            release[i] = released
            if released():
                push(i, at + 1)
                for k in alive:
                    if k != i and state[k] == _WBAR and wake[k] > at:
                        other = release[k]
                        if other is not None and other():
                            if k > i:
                                wake[k] = at
                                insort(queue, k)
                            else:
                                push(k, at + 1)
            else:
                wake[i] = _INF

        # -- main loop ----------------------------------------------------
        try:
            while alive_count:
                if queue_next:
                    cycle += 1
                    entry = sched.pop(cycle, None)
                    if entry is not None:
                        if heap and heap[0] == cycle:
                            heappop(heap)
                        queue_next.extend(entry)
                        queue_next.sort()
                    queue = queue_next
                    queue_next = []
                elif heap:
                    cycle = heappop(heap)
                    queue = sched.pop(cycle)
                    if len(queue) > 1:
                        queue.sort()
                else:
                    cycle = max_cycles  # deadlock: idle-tick to the limit
                    queue = []
                if cycle >= max_cycles:
                    self.cycle = max_cycles
                    self._accrue_timeout(
                        max_cycles, alive, state, last_step, reason, icaches,
                        ic_mode, fetch_hits, regs, pending, st_load, st_store,
                        st_bar, st_ic, st_conflict,
                    )
                    self._write_back(
                        mem, bank_busy, b_reads, b_writes, b_conf,
                        port_cur, port_use, local_req, remote_in,
                        local_acc, group_acc, cluster_acc, bank_conf,
                        port_conf, cores, sb, regs, pc, state, stall_until,
                        pend_reg, pend_data, pending, release, icaches,
                        ic_mode, fetch_hits, last_step, st_instr, st_load,
                        st_store, st_bar, st_ic, st_branch, st_conflict,
                        idle_cycles=max_cycles,
                    )
                    raise SimulationTimeout(
                        f"{alive_count} cores still running after "
                        f"{max_cycles} cycles"
                    )
                halted_now = 0
                for i in queue:
                    # fold the skipped (slept-through) cycles into the stats;
                    # stats.cycles itself needs no accounting — every active
                    # core steps every cycle, so it is its halt cycle + 1,
                    # recovered from last_step at write-back.  A positive gap
                    # always follows a sleep, and every sleep stamps reason,
                    # so the stale-reason reset is unnecessary.
                    gap = cycle - last_step[i] - 1
                    if gap > 0:
                        why = reason[i]
                        if why == _R_LOAD or why == _R_DRAIN:
                            st_load[i] += gap
                        elif why == _R_STORE:
                            st_store[i] += gap
                        elif why == _R_BAR:
                            st_bar[i] += gap
                        elif why == _R_ICW:
                            st_ic[i] += gap
                        else:  # hazard / full scoreboard / fence: re-fetches
                            st_load[i] += gap
                            if why == _R_FULL:
                                st_conflict[i] += gap
                            if ic_mode[i] == _IC_HOT:
                                fetch_hits[i] += gap
                            elif ic_mode[i] == _IC_SIM:
                                icaches[i].stats.hits += gap
                    last_step[i] = cycle

                    regs_i = regs[i]
                    scoreboarded = sb[i]

                    if scoreboarded and pending[i]:
                        # commit loads whose data has arrived
                        loads = pending[i]
                        keep = [rec for rec in loads if rec[0] > cycle]
                        if len(keep) != len(loads):
                            mask = 0
                            for rec in loads:
                                if rec[0] <= cycle:
                                    if rec[1]:
                                        regs_i[rec[1]] = rec[2]
                                else:
                                    mask |= 1 << rec[1]
                            pending[i] = keep
                            pend_mask[i] = mask

                    s = state[i]
                    if s == _WBAR:
                        released = release[i]
                        if released is None or not released():
                            # defensive: behave exactly like a reference poll
                            st_bar[i] += 1
                            reason[i] = _R_BAR
                            wake[i] = _INF
                            continue
                        s = _RUN
                        state[i] = _RUN

                    if not scoreboarded:
                        # ==================== SnitchCore =====================
                        if s == _WMEM:
                            loaded = pend_reg[i]
                            if loaded is not None:
                                if loaded:
                                    regs_i[loaded] = pend_data[i]
                                pend_reg[i] = None
                            state[i] = _RUN
                        p = pc[i]
                        end = plen[i]
                        if p >= end:
                            state[i] = _HALTED
                            wake[i] = _INF
                            halted_now += 1
                            continue
                        if ic_mode[i] == _IC_SIM:
                            penalty = icaches[i].fetch(p << 2)
                            if penalty:
                                st_ic[i] += penalty - 1
                                state[i] = _WMEM
                                stall_until[i] = cycle + penalty
                                reason[i] = _R_STORE
                                push(i, cycle + penalty)
                                continue
                            # tile-shared i-cache: fetch in step order
                            limit = cycle + 1
                        else:
                            limit = max_cycles
                        # Run the op at pc in this cycle, then run ahead
                        # through core-local ops to the cycle ``t`` of the
                        # next shared one (memory op, barrier, halt or
                        # program end), booking inline the waits the
                        # reference steps through.  Nothing runs at or past
                        # ``limit``: a wait that reaches it sleeps in the
                        # reference's wait state.  ``t`` becomes -1 once
                        # the core is scheduled some other way.
                        prog = progs[i]
                        t = cycle
                        done = 0
                        while True:
                            code, rd, rs1, rs2, imm, target, _hz = prog[p]
                            if code <= _SWP:
                                if t != cycle:
                                    break
                                # the fabric walk (decode, port claim, bank
                                # arbitration, latency class) of route(),
                                # inlined for the plain-core hot path
                                if code <= _SW:
                                    address = (regs_i[rs1] + imm) & _MASK
                                else:
                                    address = regs_i[rs1]
                                if address >= spm_bytes or address & 3:
                                    raise ValueError(
                                        f"address {address:#x} faults"
                                    )
                                word = address >> 2
                                tile = (word // bpt) % ntiles
                                src_tile = i // cpt
                                if tile != src_tile:
                                    if cycle != port_cur:
                                        port_use.clear()
                                        port_cur = cycle
                                    used = port_use.get(tile, 0)
                                    if used >= rports:
                                        port_conf += 1
                                        st_conflict[i] += 1
                                        queue_next.append(i)
                                        t = -1
                                        break
                                    port_use[tile] = used + 1
                                flat_bank = tile * bpt + word % bpt
                                if bank_busy[flat_bank] == cycle:
                                    b_conf[flat_bank] += 1
                                    bank_conf += 1
                                    st_conflict[i] += 1
                                    queue_next.append(i)
                                    t = -1
                                    break
                                bank_busy[flat_bank] = cycle
                                if tile == src_tile:
                                    local_req[tile] += 1
                                    local_acc += 1
                                    lat = lat_local
                                else:
                                    remote_in[tile] += 1
                                    if tile // tpg == src_tile // tpg:
                                        group_acc += 1
                                        lat = lat_group
                                    else:
                                        cluster_acc += 1
                                        lat = lat_cluster
                                done += 1
                                p += 1
                                if code & 1:
                                    mem[word] = regs_i[rs2] & _MASK
                                    b_writes[flat_bank] += 1
                                    if code == _SWP and rs1:
                                        regs_i[rs1] = (regs_i[rs1] + imm) & _MASK
                                    lat = store_lat[i]
                                    t = cycle + lat
                                    if lat > 1:
                                        stall_until[i] = t
                                        if t >= limit:
                                            state[i] = _WMEM
                                            reason[i] = _R_STORE
                                            push(i, t)
                                            t = -1
                                            break
                                        st_store[i] += lat - 1
                                else:
                                    data = mem.get(word)
                                    if data is None:
                                        data = spm_get(word, 0)
                                    b_reads[flat_bank] += 1
                                    if code == _LWP and rs1:
                                        regs_i[rs1] = (regs_i[rs1] + imm) & _MASK
                                    t = cycle + lat
                                    pend_data[i] = data
                                    stall_until[i] = t
                                    if t >= limit:
                                        pend_reg[i] = rd
                                        state[i] = _WMEM
                                        reason[i] = _R_LOAD
                                        push(i, t)
                                        t = -1
                                        break
                                    st_load[i] += lat - 1
                                    if rd:
                                        regs_i[rd] = data
                            elif code == _ADD:
                                if rd:
                                    regs_i[rd] = (regs_i[rs1] + regs_i[rs2]) & _MASK
                                done += 1
                                p += 1
                                t += 1
                            elif code == _LI:
                                if rd:
                                    regs_i[rd] = imm & _MASK
                                done += 1
                                p += 1
                                t += 1
                            elif code == _MUL:
                                a = regs_i[rs1]
                                b = regs_i[rs2]
                                if a & 0x80000000:
                                    a -= 0x100000000
                                if b & 0x80000000:
                                    b -= 0x100000000
                                if rd:
                                    regs_i[rd] = (a * b) & _MASK
                                done += 1
                                p += 1
                                t += 1
                            elif code == _MAC:
                                a = regs_i[rs1]
                                b = regs_i[rs2]
                                if a & 0x80000000:
                                    a -= 0x100000000
                                if b & 0x80000000:
                                    b -= 0x100000000
                                if rd:
                                    regs_i[rd] = (regs_i[rd] + a * b) & _MASK
                                done += 1
                                p += 1
                                t += 1
                            elif code == _BNE or code == _BLT:
                                a = regs_i[rs1]
                                b = regs_i[rs2]
                                if a & 0x80000000:
                                    a -= 0x100000000
                                if b & 0x80000000:
                                    b -= 0x100000000
                                taken = (a != b) if code == _BNE else (a < b)
                                done += 1
                                if taken:  # a one-cycle shadow
                                    st_branch[i] += 1
                                    p = target
                                    t += 2
                                    stall_until[i] = t
                                    if t >= limit:
                                        state[i] = _WMEM
                                        reason[i] = _R_STORE
                                        last_step[i] = t - 2
                                        push(i, t)
                                        t = -1
                                        break
                                    st_store[i] += 1
                                else:
                                    p += 1
                                    t += 1
                            elif code == _J:
                                done += 1
                                p = target
                                t += 1
                            elif code == _ADDI:
                                if rd:
                                    regs_i[rd] = (regs_i[rs1] + imm) & _MASK
                                done += 1
                                p += 1
                                t += 1
                            elif code == _SUB:
                                if rd:
                                    regs_i[rd] = (regs_i[rs1] - regs_i[rs2]) & _MASK
                                done += 1
                                p += 1
                                t += 1
                            elif code == _CSRR:
                                if rd:
                                    regs_i[rd] = i
                                done += 1
                                p += 1
                                t += 1
                            elif code == _NOP:
                                done += 1
                                p += 1
                                t += 1
                            elif t != cycle:
                                break
                            elif code == _BARRIER:
                                done += 1
                                p += 1
                                arrive_at_barrier(i, cycle, queue)
                                t = -1
                                break
                            else:  # _HALT
                                done += 1
                                state[i] = _HALTED
                                wake[i] = _INF
                                halted_now += 1
                                t = -1
                                break
                            if t >= limit or p >= end:
                                break
                        pc[i] = p
                        st_instr[i] += done
                        if t > cycle:
                            # parked: visit again at the next shared op
                            if t == cycle + 1:
                                queue_next.append(i)
                            else:
                                last_step[i] = t - 1
                                push(i, t)
                        continue

                    # ================== ScoreboardSnitchCore =================
                    if s == _WMEM:
                        state[i] = _RUN
                    p = pc[i]
                    if p >= plen[i]:
                        if pending[i]:  # drain in-flight loads before halting
                            st_load[i] += 1
                            reason[i] = _R_DRAIN
                            push(i, max(rec[0] for rec in pending[i]))
                            continue
                        state[i] = _HALTED
                        wake[i] = _INF
                        halted_now += 1
                        continue
                    icm = ic_mode[i]
                    if icm == _IC_HOT:
                        fetch_hits[i] += 1
                    elif icm == _IC_SIM:
                        penalty = icaches[i].fetch(p << 2)
                        if penalty:
                            state[i] = _WMEM
                            stall_until[i] = cycle + penalty
                            reason[i] = _R_ICW
                            push(i, cycle + penalty)
                            continue
                    code, rd, rs1, rs2, imm, target, hazard = progs[i][p]
                    mask = pend_mask[i]
                    if mask and (mask & hazard):
                        st_load[i] += 1
                        reason[i] = _R_HAZ
                        push(i, (min(rec[0] for rec in pending[i])
                                 if stable else cycle + 1))
                        continue

                    if code == _LW or code == _LWP:
                        if len(pending[i]) >= max_out[i]:
                            st_load[i] += 1
                            st_conflict[i] += 1
                            reason[i] = _R_FULL
                            push(i, (min(rec[0] for rec in pending[i])
                                     if stable else cycle + 1))
                            continue
                        if code == _LW:
                            address = (regs_i[rs1] + imm) & _MASK
                        else:
                            address = regs_i[rs1]
                        ok, lat, data = route(cycle, i, address, False, 0)
                        if not ok:
                            st_conflict[i] += 1
                            queue_next.append(i)
                            continue
                        if code == _LWP and rs1:
                            regs_i[rs1] = (regs_i[rs1] + imm) & _MASK
                        pending[i].append((cycle + lat, rd, data))
                        pend_mask[i] = mask | (1 << rd)
                        st_instr[i] += 1
                        pc[i] = p + 1
                        queue_next.append(i)
                    elif code == _SW or code == _SWP:
                        if code == _SW:
                            address = (regs_i[rs1] + imm) & _MASK
                        else:
                            address = regs_i[rs1]
                        ok, lat, _data = route(cycle, i, address, True,
                                               regs_i[rs2])
                        if not ok:
                            st_conflict[i] += 1
                            queue_next.append(i)
                            continue
                        if code == _SWP and rs1:
                            regs_i[rs1] = (regs_i[rs1] + imm) & _MASK
                        st_instr[i] += 1
                        pc[i] = p + 1
                        queue_next.append(i)
                    elif code == _MAC:
                        a = regs_i[rs1]
                        b = regs_i[rs2]
                        if a & 0x80000000:
                            a -= 0x100000000
                        if b & 0x80000000:
                            b -= 0x100000000
                        if rd:
                            regs_i[rd] = (regs_i[rd] + a * b) & _MASK
                        st_instr[i] += 1
                        pc[i] = p + 1
                        queue_next.append(i)
                    elif code == _BNE or code == _BLT:
                        a = regs_i[rs1]
                        b = regs_i[rs2]
                        if a & 0x80000000:
                            a -= 0x100000000
                        if b & 0x80000000:
                            b -= 0x100000000
                        taken = (a != b) if code == _BNE else (a < b)
                        st_instr[i] += 1
                        if taken:
                            st_branch[i] += 1
                            state[i] = _WMEM
                            stall_until[i] = cycle + 2
                            reason[i] = _R_ICW
                            pc[i] = target
                            push(i, cycle + 2)
                        else:
                            pc[i] = p + 1
                            queue_next.append(i)
                    elif code == _ADD:
                        if rd:
                            regs_i[rd] = (regs_i[rs1] + regs_i[rs2]) & _MASK
                        st_instr[i] += 1
                        pc[i] = p + 1
                        queue_next.append(i)
                    elif code == _ADDI:
                        if rd:
                            regs_i[rd] = (regs_i[rs1] + imm) & _MASK
                        st_instr[i] += 1
                        pc[i] = p + 1
                        queue_next.append(i)
                    elif code == _LI:
                        if rd:
                            regs_i[rd] = imm & _MASK
                        st_instr[i] += 1
                        pc[i] = p + 1
                        queue_next.append(i)
                    elif code == _MUL:
                        a = regs_i[rs1]
                        b = regs_i[rs2]
                        if a & 0x80000000:
                            a -= 0x100000000
                        if b & 0x80000000:
                            b -= 0x100000000
                        if rd:
                            regs_i[rd] = (a * b) & _MASK
                        st_instr[i] += 1
                        pc[i] = p + 1
                        queue_next.append(i)
                    elif code == _SUB:
                        if rd:
                            regs_i[rd] = (regs_i[rs1] - regs_i[rs2]) & _MASK
                        st_instr[i] += 1
                        pc[i] = p + 1
                        queue_next.append(i)
                    elif code == _J:
                        st_instr[i] += 1
                        pc[i] = target
                        queue_next.append(i)
                    elif code == _CSRR:
                        if rd:
                            regs_i[rd] = i
                        st_instr[i] += 1
                        pc[i] = p + 1
                        queue_next.append(i)
                    elif code == _BARRIER:
                        if pending[i]:  # fence: wait for outstanding loads
                            st_load[i] += 1
                            reason[i] = _R_FENCE
                            push(i, (max(rec[0] for rec in pending[i])
                                     if stable else cycle + 1))
                            continue
                        st_instr[i] += 1
                        pc[i] = p + 1
                        arrive_at_barrier(i, cycle, queue)
                    elif code == _NOP:
                        st_instr[i] += 1
                        pc[i] = p + 1
                        queue_next.append(i)
                    else:  # _HALT
                        if pending[i]:  # fence: drain before halting
                            st_load[i] += 1
                            reason[i] = _R_FENCE
                            push(i, (max(rec[0] for rec in pending[i])
                                     if stable else cycle + 1))
                            continue
                        st_instr[i] += 1
                        state[i] = _HALTED
                        wake[i] = _INF
                        halted_now += 1

                # -- end of cycle: prune halted cores, keep the barrier sane
                if halted_now:
                    alive = [k for k in alive if state[k] != _HALTED]
                    alive_count = len(alive)
                    episodes = barrier.episodes
                    barrier.reduce_parties(halted_now)
                    if barrier.episodes != episodes:
                        for k in alive:
                            if state[k] == _WBAR and wake[k] > cycle + 1:
                                released = release[k]
                                if released is not None and released():
                                    push(k, cycle + 1)
        except SimulationTimeout:
            raise
        except Exception:
            # A fault (e.g. a wild or unaligned address) aborts the run.
            # Other cores may have run ahead past the faulting cycle, so
            # the arrays are not written back: the barrier and the
            # simulated i-caches go back to their entry state (nothing
            # else on the cluster has changed), and the reference engine
            # replays the run, raising the same error and leaving exactly
            # its own state.
            barrier.import_state(barrier_entry)
            for icache, saved in icache_entry:
                icache.import_state(saved)
            replay = Engine(cluster, max_cycles=max_cycles)
            try:
                replay.run()
            except Exception as error:
                raise error from None
            finally:
                self.cycle = replay.cycle
            raise  # the reference ran clean: surface the fast-path error

        self.cycle = cycle + 1
        self._write_back(
            mem, bank_busy, b_reads, b_writes, b_conf, port_cur,
            port_use, local_req, remote_in, local_acc, group_acc,
            cluster_acc, bank_conf, port_conf, cores, sb, regs, pc, state,
            stall_until, pend_reg, pend_data, pending, release, icaches,
            ic_mode, fetch_hits, last_step, st_instr, st_load, st_store,
            st_bar, st_ic, st_branch, st_conflict, idle_cycles=self.cycle,
        )
        return SimulationResult(
            cycles=self.cycle,
            instructions=sum(st_instr),
            barrier_episodes=barrier.episodes,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _accrue_timeout(max_cycles, alive, state, last_step, reason,
                        icaches, ic_mode, fetch_hits, regs, pending, st_load,
                        st_store, st_bar, st_ic, st_conflict) -> None:
        """Replay what the reference does in the cycles slept through
        before the timeout: stall counts, and the scoreboard commits of
        loads that arrived."""
        for i in alive:
            if state[i] == _HALTED:
                continue
            loads = pending[i]
            if loads:
                for ready, reg, data in loads:
                    if ready < max_cycles and reg:
                        regs[i][reg] = data
                pending[i] = [rec for rec in loads if rec[0] >= max_cycles]
            gap = (max_cycles - 1) - last_step[i]
            if gap <= 0:
                continue
            why = reason[i]
            if why == _R_LOAD or why == _R_DRAIN:
                st_load[i] += gap
            elif why == _R_STORE:
                st_store[i] += gap
            elif why == _R_BAR:
                st_bar[i] += gap
            elif why == _R_ICW:
                st_ic[i] += gap
            elif why in (_R_HAZ, _R_FULL, _R_FENCE):
                st_load[i] += gap
                if why == _R_FULL:
                    st_conflict[i] += gap
                if ic_mode[i] == _IC_HOT:
                    fetch_hits[i] += gap
                elif ic_mode[i] == _IC_SIM:
                    icaches[i].stats.hits += gap

    # ------------------------------------------------------------------
    def _write_back(self, mem, bank_busy, b_reads, b_writes,
                    b_conf, port_cur, port_use, local_req,
                    remote_in, local_acc, group_acc, cluster_acc, bank_conf,
                    port_conf, cores, sb, regs, pc, state, stall_until,
                    pend_reg, pend_data, pending, release, icaches, ic_mode,
                    fetch_hits, last_step, st_instr, st_load, st_store,
                    st_bar, st_ic, st_branch, st_conflict,
                    idle_cycles: int = 0) -> None:
        """Mirror the SoA state back onto the cluster's objects."""
        cluster = self.cluster
        spm = cluster.spm
        spm.words.update(mem)
        spm.busy[:] = bank_busy
        spm.reads[:] = map(add, spm.reads, b_reads)
        spm.writes[:] = map(add, spm.writes, b_writes)
        spm.conflicts[:] = map(add, spm.conflicts, b_conf)
        for tile_id, tile in enumerate(cluster.tiles):
            tile.port_stats.local_requests += local_req[tile_id]
            tile.port_stats.remote_in_requests += remote_in[tile_id]
        router = cluster.router
        router.stats.local_accesses += local_acc
        router.stats.group_accesses += group_acc
        router.stats.cluster_accesses += cluster_acc
        router.stats.bank_conflicts += bank_conf
        router.stats.port_conflicts += port_conf
        router.import_port_state(port_cur, port_use)
        for i, core in enumerate(cores):
            if sb[i]:
                core.import_state({
                    "regs": regs[i],
                    "pc": pc[i],
                    "state": _STATE_BACK[state[i]],
                    "stall_until": stall_until[i],
                    "pending": list(pending[i]),
                    "barrier_release": release[i],
                })
                hits = fetch_hits[i]
            else:
                core.import_state({
                    "regs": regs[i],
                    "pc": pc[i],
                    "state": _STATE_BACK[state[i]],
                    "stall_until": stall_until[i],
                    "pending_load_reg": pend_reg[i],
                    "pending_load_data": pend_data[i],
                    "barrier_release": release[i],
                })
                # a plain core fetches once per retired instruction and
                # once per refused memory op
                hits = st_instr[i] + st_conflict[i]
            if ic_mode[i] == _IC_HOT and hits:
                icaches[i].stats.hits += hits
            stats = core.stats
            # a core is stepped every cycle until it halts, so its cycle
            # count is simply its halt cycle + 1; cores still running at
            # a timeout are charged up to the limit
            if state[i] == _HALTED:
                stats.cycles += last_step[i] + 1
            else:
                stats.cycles += max(last_step[i] + 1, idle_cycles)
            stats.instructions += st_instr[i]
            stats.load_stall_cycles += st_load[i]
            stats.store_stall_cycles += st_store[i]
            stats.barrier_stall_cycles += st_bar[i]
            stats.icache_stall_cycles += st_ic[i]
            stats.branch_stall_cycles += st_branch[i]
            stats.conflict_retries += st_conflict[i]
