"""The ``fast`` engine's fused per-quantum kernels.

:func:`run_core_chunk` is a bit-identical restructuring of
``Machine._run_core_chunk_reference`` (see :mod:`repro.sim.engines`):

* **Staged chunk pipeline** — the trace chunk is pre-segmented with
  NumPy into runs of identical ``(ctx, line)`` records (spatial-locality
  repeats are the common case: sequential streams emit every line 8x).
  The first access of a run executes the full L1/prefetcher/L2 pipeline
  inline.  Once the line is resident and the IP-stride entry is below
  its confidence threshold, the remaining repeats are pure L1 hits with
  no prefetcher side effects (a repeat's delta of 0 only decays the
  entry), so they collapse into one closed form: a confidence decay
  plus one LRU refresh.  A repeat under a confident entry, which may
  still emit, takes the per-access path.
* **Fused loops** — the per-access work of ``Cache.access``,
  ``PrefetcherBank.l1_candidates``/``l2_candidates`` and the four
  prefetcher models is inlined into one interpreter loop over local
  variables; the chunk's PMU counts accumulate in locals, and the L1/L2
  ``CacheStats`` are derived from them when they flush once per chunk.

Everything here mutates the same state objects the reference engine
would (:class:`~repro.sim.fastcache.FastCache` sets, prefetcher tables,
PMU count array), so mid-run engine introspection (analysis hooks,
``CacheStats``) sees identical values.

The LLC side is :class:`~repro.sim.batch.GroupedLLC` for every fast
path; this module holds what wraps its serve — the round-robin request
merge (:func:`merge_llc_requests`) and the per-core tail
(:func:`apply_llc_tail`).
"""

from __future__ import annotations

from itertools import repeat as _repeat

import numpy as np

from repro.sim.pmu import Event

__all__ = ["apply_llc_tail", "merge_llc_requests", "run_core_chunk"]

_SENTINEL = np.int64(np.iinfo(np.int64).min)


def run_core_chunk(cpu, cs, q, qc, llc_req, pmu_counts) -> None:
    """Filter one core's chunk through L1/L2 with prefetch triggering.

    Appends sign-encoded LLC requests (``line`` demand, ``~line``
    prefetch) to ``llc_req``; bit-identical to the reference path.
    """
    ctxs, lines = cs.trace.chunk(q)
    n = len(lines)
    if n == 0:
        return

    l1 = cs.l1
    l2 = cs.l2
    bank = cs.bank
    l1_sets = l1._sets
    l2_sets = l2._sets
    l1_mask = l1._set_mask
    l2_mask = l2._set_mask
    l1_ways = l1.ways
    l2_ways = l2.ways

    en_stride = bank.en_stride
    en_next = bank.en_next_line
    en_stream = bank.en_streamer
    en_adj = bank.en_adjacent
    any_l1 = en_stride or en_next
    any_l2 = en_stream or en_adj

    ip = bank.ip_stride
    stride_table = ip._table
    stride_entries = ip.table_entries
    stride_degree = ip.degree
    stride_conf = ip.conf_threshold
    sp = bank.streamer
    stream_table = sp._table
    stream_pages = sp.table_pages
    stream_degree = sp.degree

    append = llc_req.append

    # --- run-length segmentation (vectorised) -----------------------
    # One (ctx, line, count) triple per run of identical records; a
    # run-free chunk iterates the raw chunk zipped with count 1.
    runs = None
    if n > 1:
        same = (lines[1:] == lines[:-1]) & (ctxs[1:] == ctxs[:-1])
        if same.any():
            brk = np.flatnonzero(~same) + 1
            starts = np.empty(len(brk) + 1, dtype=np.int64)
            starts[0] = 0
            starts[1:] = brk
            counts_arr = np.diff(np.append(starts, n))
            runs = zip(
                ctxs[starts].tolist(), lines[starts].tolist(), counts_arr.tolist()
            )
    if runs is None:
        runs = zip(ctxs.tolist(), lines.tolist(), _repeat(1))

    # --- local stat accumulators ------------------------------------
    l1_fills = l1_used = l1_evic = 0
    l2_used = l2_evic = 0
    n_l1_miss = 0
    n_l1_pref = 0
    n_l2_hit_d = 0
    n_l2_dm_miss = 0
    n_l2_pref = 0
    n_l2_pref_miss = 0

    for c, line, k in runs:
        s1 = l1_sets[line & l1_mask]
        j = 0
        while True:
            # ---------------- L1 demand lookup ----------------------
            v = s1.pop(line, None)
            if v is not None:
                hit1 = True
                if v:
                    l1_used += 1
            else:
                hit1 = False
                if len(s1) >= l1_ways:
                    vb = s1.pop(next(iter(s1)))
                    if vb:
                        l1_evic += 1
            s1[line] = 0  # (re)insert -> MRU, pref bit consumed
            # ---------------- L1 (DCU) prefetchers ------------------
            e = None
            if any_l1:
                if en_stride:
                    e = stride_table.get(c)
                    if e is None:
                        if len(stride_table) >= stride_entries:
                            del stride_table[next(iter(stride_table))]
                        e = stride_table[c] = [line, 0, 0]
                    else:
                        delta = line - e[0]
                        e[0] = line
                        if delta == e[1] and delta != 0:
                            if e[2] < 3:
                                e[2] += 1
                        else:
                            if e[2] > 0:
                                e[2] -= 1
                            if e[2] == 0:
                                e[1] = delta
                        if e[2] >= stride_conf and e[1] != 0:
                            stride = e[1]
                            for m in range(1, stride_degree + 1):
                                p = line + stride * m
                                n_l1_pref += 1
                                # DCU prefetchers fetch from L2 only; a
                                # request missing L2 is dropped.
                                sp1 = l1_sets[p & l1_mask]
                                if p not in sp1:
                                    sl2 = l2_sets[p & l2_mask]
                                    v2 = sl2.pop(p, None)
                                    if v2 is not None:
                                        if v2:
                                            l2_used += 1
                                        sl2[p] = 0  # touch: -> MRU, bit consumed
                                        if len(sp1) >= l1_ways:
                                            vb = sp1.pop(next(iter(sp1)))
                                            if vb:
                                                l1_evic += 1
                                        sp1[p] = 1
                                        l1_fills += 1
                if en_next and not hit1:
                    p = line + 1
                    n_l1_pref += 1
                    sp1 = l1_sets[p & l1_mask]
                    if p not in sp1:
                        sl2 = l2_sets[p & l2_mask]
                        v2 = sl2.pop(p, None)
                        if v2 is not None:
                            if v2:
                                l2_used += 1
                            sl2[p] = 0  # touch: -> MRU, bit consumed
                            if len(sp1) >= l1_ways:
                                vb = sp1.pop(next(iter(sp1)))
                                if vb:
                                    l1_evic += 1
                            sp1[p] = 1
                            l1_fills += 1
            # ---------------- L2 demand + prefetchers ---------------
            if not hit1:
                n_l1_miss += 1
                s2 = l2_sets[line & l2_mask]
                v2 = s2.pop(line, None)
                if v2 is not None:
                    hit2 = True
                    if v2:
                        l2_used += 1
                    n_l2_hit_d += 1
                else:
                    hit2 = False
                    if len(s2) >= l2_ways:
                        vb = s2.pop(next(iter(s2)))
                        if vb:
                            l2_evic += 1
                    n_l2_dm_miss += 1
                    append(line)
                s2[line] = 0  # (re)insert -> MRU, pref bit consumed
                if any_l2:
                    if en_stream:
                        page = line >> 6
                        off = line & 63
                        e2 = stream_table.get(page)
                        if e2 is None:
                            if len(stream_table) >= stream_pages:
                                del stream_table[next(iter(stream_table))]
                            stream_table[page] = [off, 0, 0, -1]
                        else:
                            delta = off - e2[0]
                            direction = 1 if delta > 0 else (-1 if delta < 0 else 0)
                            if direction != 0 and direction == e2[1]:
                                e2[2] += 1
                            else:
                                e2[1] = direction
                                e2[2] = 1 if direction else 0
                                e2[3] = -1
                            e2[0] = off
                            if e2[2] >= 2 and e2[1] != 0:
                                base = page << 6
                                ptr = e2[3]
                                if e2[1] > 0:
                                    start = off + 1 if ptr < off + 1 else ptr + 1
                                    stop = off + stream_degree
                                    if stop > 63:
                                        stop = 63
                                    if stop >= start:
                                        e2[3] = stop
                                    for noff in range(start, stop + 1):
                                        p = base + noff
                                        n_l2_pref += 1
                                        sl2 = l2_sets[p & l2_mask]
                                        if p not in sl2:
                                            if len(sl2) >= l2_ways:
                                                vb = sl2.pop(next(iter(sl2)))
                                                if vb:
                                                    l2_evic += 1
                                            sl2[p] = 1
                                            n_l2_pref_miss += 1
                                            append(~p)
                                else:
                                    start = off - 1 if (ptr == -1 or ptr > off - 1) else ptr - 1
                                    stop = off - stream_degree
                                    if stop < 0:
                                        stop = 0
                                    if start >= stop:
                                        e2[3] = stop
                                    for noff in range(start, stop - 1, -1):
                                        p = base + noff
                                        n_l2_pref += 1
                                        sl2 = l2_sets[p & l2_mask]
                                        if p not in sl2:
                                            if len(sl2) >= l2_ways:
                                                vb = sl2.pop(next(iter(sl2)))
                                                if vb:
                                                    l2_evic += 1
                                            sl2[p] = 1
                                            n_l2_pref_miss += 1
                                            append(~p)
                    if en_adj and not hit2:
                        p = line ^ 1
                        n_l2_pref += 1
                        sl2 = l2_sets[p & l2_mask]
                        if p not in sl2:
                            if len(sl2) >= l2_ways:
                                vb = sl2.pop(next(iter(sl2)))
                                if vb:
                                    l2_evic += 1
                            sl2[p] = 1
                            n_l2_pref_miss += 1
                            append(~p)
            # ---------------- repeat collapse -----------------------
            j += 1
            if j >= k:
                break
            if en_stride and e[2] >= stride_conf:
                continue  # a confident entry may emit: replay the repeat
            v = s1.pop(line, None)
            if v is None:
                continue  # evicted by a same-set prefetch fill: re-miss
            # The remaining k-j repeats are pure L1 hits: their delta is
            # 0, so the stride entry only decays (below the threshold,
            # it emits nothing), the next-line prefetcher needs a miss
            # and L2 is never consulted: the run is one MRU refresh.
            if v:
                l1_used += 1
            s1[line] = 0
            if en_stride:
                e[2] -= k - j
                if e[2] <= 0:
                    e[2] = e[1] = 0
            break

    # --- flush accumulators -----------------------------------------
    # Every access and L1 prefetch fill is an L1 access; every L1 demand
    # miss and L2 prefetch fill an L2 access.
    st1 = l1.stats
    st1.accesses += n + l1_fills
    st1.hits += n - n_l1_miss
    st1.pref_fills += l1_fills
    st1.pref_used += l1_used
    st1.pref_evicted_unused += l1_evic
    st2 = l2.stats
    st2.accesses += n_l1_miss + n_l2_pref_miss
    st2.hits += n_l2_hit_d
    st2.pref_fills += n_l2_pref_miss
    st2.pref_used += l2_used
    st2.pref_evicted_unused += l2_evic

    qc.n_access = n
    qc.n_l2_hit_d = n_l2_hit_d
    pmu_counts[cpu, Event.L1_DM_REQ] += n
    pmu_counts[cpu, Event.L1_DM_MISS] += n_l1_miss
    pmu_counts[cpu, Event.L1_PREF_REQ] += n_l1_pref
    pmu_counts[cpu, Event.L2_DM_REQ] += n_l1_miss
    pmu_counts[cpu, Event.L2_DM_MISS] += n_l2_dm_miss
    pmu_counts[cpu, Event.L2_PREF_REQ] += n_l2_pref
    pmu_counts[cpu, Event.L2_PREF_MISS] += n_l2_pref_miss


def merge_llc_requests(llc_reqs) -> tuple[list, list, list]:
    """Round-robin merge of per-core request lists, materialized.

    Returns ``(busy, merged, mcpus)`` — the busy-core list plus the
    column-major interleaved request stream and the core each request
    came from, as plain lists.  The merge depends only on the request
    lists (not on CAT or LLC state), so the batch kernel computes it
    once for every run whose cores produced the same lists.
    """
    busy = [cpu for cpu, reqs in enumerate(llc_reqs) if reqs]
    if not busy:
        return busy, [], []
    if len(busy) == 1:
        cpu0 = busy[0]
        merged = list(llc_reqs[cpu0])
        return busy, merged, [cpu0] * len(merged)
    lens = [len(llc_reqs[c]) for c in busy]
    maxlen = max(lens)
    mat = np.full((len(busy), maxlen), _SENTINEL, dtype=np.int64)
    for row, c in enumerate(busy):
        mat[row, : lens[row]] = llc_reqs[c]
    flat = mat.T.ravel()
    valid = flat != _SENTINEL
    merged = flat[valid].tolist()
    mcpus = np.tile(np.asarray(busy, dtype=np.int64), maxlen)[valid].tolist()
    return busy, merged, mcpus


def apply_llc_tail(qc, pmu_counts, cpu, n_hit_d, n_mem_d, n_pref_fill, line_bytes) -> None:
    """Fold per-core LLC serve tallies into quantum counts and PMU rows.

    Shared by the scalar fast machine and the batch engine's lockstep
    machines so the exact accumulation order — and therefore float64
    bit-identity with the scalar engine — lives in one place.  The
    batched timing of :func:`repro.sim.batch.run_static_sweep` and
    :mod:`repro.sim.singlecore` folds the same values as arrays.
    """
    qc.n_llc_hit_d += n_hit_d
    if n_mem_d:
        qc.n_mem_d += n_mem_d
        qc.demand_bytes += n_mem_d * line_bytes
        pmu_counts[cpu, Event.L3_LOAD_MISS] += n_mem_d
    if n_pref_fill:
        qc.pref_bytes += n_pref_fill * line_bytes
