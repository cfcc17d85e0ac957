"""Per-layer metrics of the traced run, derived from span self time.

Times are totals over the traced run's fixed item count, in seconds of
host time; counts repeat exactly for a seed.  Cache and stage counters
come from the program's own public counters (``Engine.stage_counters``
and the ``TieredCache`` hit counters), read before and after the run.
"""

from __future__ import annotations

import collections
import itertools

from bench_spans import covered, layer_of


def per_layer(tracer, phase, span_cost: float, setup_times: dict,
              journal_bytes: int) -> tuple[dict, dict]:
    """``(metric values by name, layer split)`` of one traced run.

    The split gives each layer's self time as a share of the summed
    item time; ``unattributed`` is item time no root span covers (the
    benchmark's own bookkeeping between items is outside every item).
    The tracing overhead is the calibrated cost of one span times the
    spans recorded, as a share of the summed item time.
    """
    selfs = tracer.self_times()
    count = collections.Counter()
    self_s = collections.defaultdict(float)
    layer_s = collections.defaultdict(float)
    for span in tracer.spans:
        count[span[1]] += 1
        self_s[span[1]] += selfs[span[0]]
        layer_s[layer_of(span[1])] += selfs[span[0]]

    sims = [s for s in tracer.spans if s[1] == "simulator.run"]
    cycles = sum(s[6].get("cycles", 0) for s in sims if s[6])
    instructions = sum(s[6].get("instructions", 0) for s in sims if s[6])
    requests = [s for s in tracer.spans if s[1] == "client.run"]
    request_ids = {s[0] for s in requests}
    client_s = sum(s[3] - s[2] for s in requests)
    server_engine_s = sum(s[3] - s[2] for s in tracer.spans
                          if s[1] == "engine.run" and s[4] in request_ids)
    retries = sum(1 for s in tracer.spans
                  if s[1] == "client.close" and s[4] in request_ids)

    item_s = sum(phase.latencies)
    roots = sorted((s[2], s[3]) for s in tracer.roots())
    attributed, first = 0.0, 0
    for end, latency in zip(phase.ends, phase.latencies):
        start = end - latency
        while first < len(roots) and roots[first][1] <= start:
            first += 1
        attributed += covered(itertools.takewhile(
            lambda r: r[0] < end, itertools.islice(roots, first, None)),
            start, end)
    unattributed = item_s - attributed
    c = phase.counters
    looked_up = c.get("memory_hits", 0) + c.get("disk_hits", 0) + c.get("misses", 0)
    values = {
        "simulator.runs": len(sims),
        "simulator.run_s": self_s["simulator.run"],
        "simulator.sim_cycles": cycles,
        "simulator.sim_instructions": instructions,
        "simulator.sim_cycles_per_host_s": (
            cycles / self_s["simulator.run"] if self_s["simulator.run"] else 0.0),
        "simulator.failures": sum(1 for s in sims if s[6] and s[6].get("failed")),
        "arch.cluster_build_s": self_s["arch.cluster_build"],
        "arch.spm_write_s": self_s["arch.spm_write"],
        "arch.program_load_s": self_s["arch.program_load"],
        "kernels.workload_calls": count["kernels.workload"],
        "kernels.workload_self_s": self_s["kernels.workload"],
        "kernels.prepare_self_s": self_s["kernels.prepare"],
        "sweep.cache_put_calls": count["sweep.cache_put"],
        "sweep.cache_put_s": self_s["sweep.cache_put"],
        "engine.stage_put_s": self_s["engine.stage_put"],
        "engine.stats_flush_s": self_s["engine.stats_flush"],
        "sweep.journal_bytes": journal_bytes,
        "engine.self_s": layer_s["engine"],
        "api.key_calls": count["api.key"],
        "api.key_s": self_s["api.key"],
        "kernels.phase_model_s": self_s["kernels.phase_model"],
        "engine.stage_physical_hits": c.get("physical_hits", 0),
        "engine.stage_physical_evals": c.get("physical_evals", 0),
        "engine.stage_cycles_hits": c.get("cycles_hits", 0),
        "engine.stage_cycles_evals": c.get("cycles_evals", 0),
        "physical.implements": count["physical.implement"],
        "physical.implement_s": self_s["physical.implement"],
        "engine.memory_hits": c.get("memory_hits", 0),
        "engine.disk_hits": c.get("disk_hits", 0),
        "engine.misses": c.get("misses", 0),
        "engine.hit_ratio": (
            (looked_up - c.get("misses", 0)) / looked_up if looked_up else 0.0),
        "sweep.refresh_s": self_s["sweep.refresh"],
        "api.scenario_build_s": self_s["api.scenario_build"],
        "service.requests": len(requests),
        "service.engine_s": server_engine_s,
        "service.transport_s": client_s - server_engine_s,
        "service.non_2xx": phase.non_2xx,
        "client.request_s": client_s,
        "client.retries": retries,
        "setup.import_s": setup_times["import_s"],
        "setup.generate_s": setup_times["generate_s"],
        "setup.warmup_s": setup_times["warmup_s"],
        "bench.unattributed_pct": 100.0 * unattributed / item_s,
        "bench.trace_overhead_pct": (
            100.0 * span_cost * len(tracer.spans) / item_s),
    }
    split = {layer: 100.0 * seconds / item_s for layer, seconds in
             sorted(layer_s.items(), key=lambda kv: -kv[1])}
    split["unattributed"] = 100.0 * unattributed / item_s
    return values, split
