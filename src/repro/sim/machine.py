"""The multicore machine: cores, caches, prefetchers, LLC, DRAM, PMU.

Execution is quantum-interleaved (DESIGN.md section 5): each active
core generates and filters a chunk of demand accesses through its
private L1/L2 (triggering its prefetchers), the resulting LLC requests
of all cores are merged round-robin and served by the shared
way-partitioned LLC, misses become DRAM traffic, and the quantum's
timing is solved as one fixed point.  PMU counters and the MSR / CAT
control surfaces behave like the real hardware interfaces the paper's
kernel module uses.
"""

from __future__ import annotations

import numpy as np

from repro.sim import fastengine
from repro.sim.cat import CatController
from repro.sim.cache import Cache, CacheStats, PartitionedCache
from repro.sim.core_model import QuantumCounts, solve_quantum
from repro.sim.engines import ENGINE_FAST, resolve_engine
from repro.sim.fastcache import FastCache
from repro.sim.memory import DramModel
from repro.sim.msr import MsrFile, PrefetchMsr, enables_from_mask
from repro.sim.params import MachineParams
from repro.sim.pmu import Event, Pmu
from repro.sim.prefetcher import PrefetcherBank
from repro.sim.trace import IdleTrace, TraceGenerator

DEFAULT_QUANTUM = 1024

# Address-space stride between cores: each core's traces live in a
# private region so no sharing occurs (multiprogrammed workloads).
CORE_ADDRESS_STRIDE_LINES = 1 << 34


class _CoreState:
    __slots__ = ("l1", "l2", "bank", "trace", "active")

    def __init__(self, params: MachineParams, fast: bool) -> None:
        if fast:
            self.l1: Cache | FastCache = FastCache(params.l1)
            self.l2: Cache | FastCache = FastCache(params.l2)
        else:
            self.l1 = Cache(params.l1)
            self.l2 = Cache(params.l2)
        self.bank = PrefetcherBank(
            stride_table=params.stride_table_entries,
            stride_degree=params.stride_degree,
            stride_confidence=params.stride_confidence,
            streamer_pages=params.streamer_table_pages,
            streamer_degree=params.streamer_degree,
        )
        self.trace: TraceGenerator | IdleTrace = IdleTrace()
        self.active = False


class Machine:
    """An N-core machine with shared LLC and DRAM."""

    def __init__(
        self,
        params: MachineParams | None = None,
        *,
        quantum: int = DEFAULT_QUANTUM,
        engine: str | None = None,
    ) -> None:
        self.params = params or MachineParams()
        self.quantum = int(quantum)
        if self.quantum < 1:
            raise ValueError("quantum must be positive")
        # Explicit argument beats $REPRO_SIM_ENGINE beats fast.  The
        # engine's kernel decides which scalar hot path this machine runs
        # (batch degrades to its scalar kernel here — the multi-run path
        # lives in repro.sim.batch).
        spec = resolve_engine(engine)
        self.engine = spec.name
        self._fast = spec.kernel == ENGINE_FAST
        n = self.params.n_cores
        self.cores = [_CoreState(self.params, self._fast) for _ in range(n)]
        if self._fast:
            # The batch engine's grouped LLC at width 1: one LLC model
            # for every fast path (sim.batch imports this module).
            from repro.sim.batch import GroupedLLC

            self.llc = GroupedLLC(self.params.llc, 1)
        else:
            self.llc = PartitionedCache(self.params.llc)
        self.cat = CatController(self.params.llc.ways, n)
        # CAT as a (cpus, ways) allow matrix, rebuilt when the CAT
        # generation moves (see _refresh_allow).
        self._allow = np.zeros((n, self.params.llc.ways), dtype=bool)
        self._allow_gen = -1
        self.msr = MsrFile(n)
        self.prefetch_msr = PrefetchMsr(self.msr)
        self.pmu = Pmu(n)
        self.dram = DramModel(self.params)
        # Last MSR 0x1A4 mask pushed into each core's prefetcher bank;
        # -1 forces the first _sync_prefetchers to decode and push.
        self._pf_mask_seen = [-1] * n

    # ---------------------------------------------------------- setup

    def attach_trace(self, core: int, trace: TraceGenerator) -> None:
        """Bind a workload trace to a core and mark it active."""
        cs = self.cores[core]
        cs.trace = trace
        cs.active = True

    def set_idle(self, core: int) -> None:
        cs = self.cores[core]
        cs.trace = IdleTrace()
        cs.active = False

    def active_cores(self) -> list[int]:
        return [i for i, c in enumerate(self.cores) if c.active]

    def core_base_line(self, core: int) -> int:
        """Base line address of a core's private region."""
        return core * CORE_ADDRESS_STRIDE_LINES

    def llc_stats(self) -> CacheStats:
        """The shared LLC's counters, whichever engine built it."""
        if self._fast:
            return CacheStats(*self.llc.stats_for(0))
        return self.llc.stats

    def llc_occupancy(self) -> int:
        """Valid lines in the shared LLC."""
        if self._fast:
            return self.llc.occupancy(0)
        return self.llc.occupancy()

    # ----------------------------------------------------------- run

    def _sync_prefetchers(self) -> None:
        """Push MSR 0x1A4 state into each core's prefetcher bank.

        The mask is latched per core so an unchanged MSR costs one int
        compare per quantum instead of a decode + four attribute writes
        (the bank is only ever reconfigured through ``prefetch_msr``,
        which this method mirrors).
        """
        seen = self._pf_mask_seen
        for cpu, cs in enumerate(self.cores):
            mask = self.prefetch_msr.get_mask(cpu)
            if mask == seen[cpu]:
                continue
            seen[cpu] = mask
            en = enables_from_mask(mask)
            cs.bank.set_enables(
                stride=en["stride"],
                next_line=en["next_line"],
                streamer=en["streamer"],
                adjacent=en["adjacent"],
            )

    def run_accesses(self, n_per_core: int) -> None:
        """Advance the machine by ``n_per_core`` demand accesses per active core."""
        remaining = int(n_per_core)
        while remaining > 0:
            q = min(self.quantum, remaining)
            self._run_quantum(q)
            remaining -= q

    def _run_quantum(self, q: int) -> None:
        """One quantum = core phase -> LLC phase -> timing phase.

        Each phase is an overridable method so engine variants (the
        batch kernel's ``LockstepMachine`` in :mod:`repro.sim.batch`)
        can substitute phases while inheriting the rest unchanged —
        bit-identity follows from feeding the untouched downstream
        phases the exact same inputs.
        """
        self._sync_prefetchers()
        n = self.params.n_cores
        counts = [QuantumCounts() for _ in range(n)]
        ipm = [0.0] * n
        mlp = [1.0] * n
        active = [False] * n
        # Request lists: (line, is_prefetch) tuples for the reference
        # engine, sign-encoded ints (``line`` / ``~line``) for fast.
        llc_reqs: list[list] = [[] for _ in range(n)]
        self._core_phase(q, counts, ipm, mlp, active, llc_reqs)
        self._llc_phase(counts, llc_reqs)
        self._timing_phase(counts, ipm, mlp, active)

    def _core_phase(self, q, counts, ipm, mlp, active, llc_reqs) -> None:
        """Filter each active core's chunk through its private hierarchy."""
        pmu_counts = self.pmu.counts
        fast = self._fast
        for cpu in range(self.params.n_cores):
            cs = self.cores[cpu]
            if not cs.active:
                continue
            active[cpu] = True
            ipm[cpu] = cs.trace.inst_per_mem
            mlp[cpu] = cs.trace.mlp
            if fast:
                fastengine.run_core_chunk(cpu, cs, q, counts[cpu], llc_reqs[cpu], pmu_counts)
            else:
                self._run_core_chunk_reference(cpu, cs, q, counts[cpu], llc_reqs[cpu], pmu_counts)

    def _refresh_allow(self) -> None:
        cat = self.cat
        if cat.generation == self._allow_gen:
            return
        self._allow[:] = False
        for cpu in range(self.params.n_cores):
            for w in cat.allowed_ways(cpu):
                self._allow[cpu, w] = True
        self._allow_gen = cat.generation

    def _llc_phase(self, counts, llc_reqs) -> None:
        """Merge all cores' LLC requests round-robin and serve them."""
        if not self._fast:
            self._serve_llc_reference(counts, llc_reqs, self.pmu.counts)
            return
        from repro.sim.batch import _PreparedStream

        busy, merged, mcpus = fastengine.merge_llc_requests(llc_reqs)
        if not busy:
            return
        self._refresh_allow()
        hits_d, mem_d, pref_m = np.zeros((3, 1, self.params.n_cores), dtype=np.int64)
        stream = _PreparedStream(merged, mcpus, self.params.llc.sets - 1)
        self.llc.serve(stream, self._allow[None], hits_d, mem_d, pref_m)
        pmu_counts = self.pmu.counts
        line_bytes = float(self.params.line_bytes)
        for cpu in busy:
            fastengine.apply_llc_tail(
                counts[cpu], pmu_counts, cpu,
                int(hits_d[0, cpu]), int(mem_d[0, cpu]), int(pref_m[0, cpu]), line_bytes,
            )

    def _timing_phase(self, counts, ipm, mlp, active) -> None:
        """Solve the quantum's fixed-point timing and account PMU/DRAM."""
        pmu_counts = self.pmu.counts
        timing = solve_quantum(self.params, counts, ipm, mlp, active)
        demand_b = 0.0
        pref_b = 0.0
        for cpu in range(self.params.n_cores):
            if not active[cpu]:
                continue
            c = counts[cpu]
            pmu_counts[cpu, Event.INSTRUCTIONS] += c.n_access * (1.0 + ipm[cpu])
            pmu_counts[cpu, Event.CYCLES] += timing.cycles[cpu]
            pmu_counts[cpu, Event.STALLS_L2_PENDING] += timing.stalls_l2_pending[cpu]
            pmu_counts[cpu, Event.MEM_DEMAND_BYTES] += c.demand_bytes
            pmu_counts[cpu, Event.MEM_PREF_BYTES] += c.pref_bytes
            demand_b += c.demand_bytes
            pref_b += c.pref_bytes
        self.dram.account(demand_b, pref_b)
        self.pmu.wall_cycles += timing.machine_cycles

    def _run_core_chunk_reference(
        self,
        cpu: int,
        cs: _CoreState,
        q: int,
        qc: QuantumCounts,
        llc_req: list[tuple[int, bool]],
        pmu_counts,
    ) -> None:
        """Filter one core's chunk through L1/L2 with prefetch triggering.

        The ``reference`` engine's kernel — semantic source of truth for
        :func:`repro.sim.fastengine.run_core_chunk`.
        """
        ctxs, lines = cs.trace.chunk(q)
        n = len(lines)
        if n == 0:
            return
        l1 = cs.l1
        l2 = cs.l2
        bank = cs.bank
        l1_access = l1.access
        l1_probe = l1.probe
        l2_access = l2.access
        l2_probe = l2.probe
        l2_touch = l2.touch_used
        l1_cand = bank.l1_candidates
        l2_cand = bank.l2_candidates
        any_l1 = bank.any_l1_enabled
        any_l2 = bank.any_l2_enabled
        append = llc_req.append
        lines_list = lines.tolist()
        ctx_list = ctxs.tolist()

        n_l1_miss = 0
        n_l1_pref = 0
        n_l2_hit_d = 0
        n_l2_dm_miss = 0
        n_l2_pref = 0
        n_l2_pref_miss = 0

        for i in range(n):
            line = lines_list[i]
            hit1 = l1_access(line, False)
            if any_l1:
                for p in l1_cand(ctx_list[i], line, hit1):
                    n_l1_pref += 1
                    # DCU (L1) prefetchers fetch from L2 only; a request
                    # missing L2 is dropped — they never go off-chip.
                    # The L2 read consumes the line's prefetched-unused
                    # bit: the data is flowing toward the demand stream.
                    if not l1_probe(p) and l2_touch(p):
                        l1_access(p, True)
            if hit1:
                continue
            n_l1_miss += 1
            hit2 = l2_access(line, False)
            if hit2:
                n_l2_hit_d += 1
            else:
                n_l2_dm_miss += 1
                append((line, False))
            if any_l2:
                for p in l2_cand(line, hit2):
                    n_l2_pref += 1
                    if not l2_probe(p):
                        l2_access(p, True)
                        n_l2_pref_miss += 1
                        append((p, True))

        qc.n_access = n
        qc.n_l2_hit_d = n_l2_hit_d
        pmu_counts[cpu, Event.L1_DM_REQ] += n
        pmu_counts[cpu, Event.L1_DM_MISS] += n_l1_miss
        pmu_counts[cpu, Event.L1_PREF_REQ] += n_l1_pref
        pmu_counts[cpu, Event.L2_DM_REQ] += n_l1_miss
        pmu_counts[cpu, Event.L2_DM_MISS] += n_l2_dm_miss
        pmu_counts[cpu, Event.L2_PREF_REQ] += n_l2_pref
        pmu_counts[cpu, Event.L2_PREF_MISS] += n_l2_pref_miss

    def _serve_llc_reference(
        self,
        counts: list[QuantumCounts],
        llc_reqs: list[list[tuple[int, bool]]],
        pmu_counts,
    ) -> None:
        """Serve all cores' LLC requests, merged round-robin.

        The ``reference`` engine's kernel — semantic source of truth for
        the fast engine's :class:`~repro.sim.batch.GroupedLLC` serve.
        """
        llc_access = self.llc.access
        line_bytes = float(self.params.line_bytes)
        allowed = [self.cat.allowed_ways(cpu) for cpu in range(len(llc_reqs))]
        busy = [cpu for cpu, reqs in enumerate(llc_reqs) if reqs]
        if not busy:
            return
        max_len = max(len(llc_reqs[cpu]) for cpu in busy)
        for i in range(max_len):
            for cpu in busy:
                reqs = llc_reqs[cpu]
                if i >= len(reqs):
                    continue
                line, is_pref = reqs[i]
                hit = llc_access(line, allowed[cpu], is_pref)
                qc = counts[cpu]
                if is_pref:
                    if not hit:
                        qc.pref_bytes += line_bytes
                else:
                    if hit:
                        qc.n_llc_hit_d += 1
                    else:
                        qc.n_mem_d += 1
                        qc.demand_bytes += line_bytes
                        pmu_counts[cpu, Event.L3_LOAD_MISS] += 1
