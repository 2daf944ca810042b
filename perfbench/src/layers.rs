//! The metric catalogue: the end-to-end metrics every untraced run prints
//! and the per-layer metrics every traced run prints, with their units.
//! A layer a workload does not exercise reads 0 on that workload.

use crate::stats::histogram_quantile_ns;
use crate::Metric;
use botmeter_obs::MetricsSnapshot;
use std::collections::BTreeMap;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("lookups_per_s", "1/s"),
    ("time_to_landscape_s", "s"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    // sim (fused with dns and faults in the streaming pipeline)
    ("sim.run_s", "s"),
    ("sim.raw_lookups", "count"),
    ("sim.bots_replayed", "count"),
    ("sim.stream.shards", "count"),
    ("sim.stream.peak_resident_records", "count"),
    // dns
    ("dns.cache_hit_ratio", "ratio"),
    ("dns.filter_ratio", "ratio"),
    ("cache.expired_evictions", "count"),
    // faults
    ("sim.faults.input", "count"),
    ("sim.faults.dropped", "count"),
    // exec
    ("sched.stream.backpressure_stalls", "count"),
    ("sched.stream.queue_high_water", "count"),
    ("sched.exec.tasks", "count"),
    ("sched.exec.steals", "count"),
    ("exec.threads", "count"),
    ("exec.available_cores", "count"),
    ("exec.scaling_ratio", "ratio"),
    // matcher
    ("matcher.match_s", "s"),
    ("matcher.probes", "count"),
    ("matcher.matches", "count"),
    ("matcher.match_ratio", "ratio"),
    // core
    ("core.chart_s", "s"),
    ("core.are_mean", "ratio"),
    ("chart.cells", "count"),
    ("chart.segments.scheduled", "count"),
    ("chart.kernel.memo_hit_ratio", "ratio"),
    ("chart.kernel.gap_tables_built", "count"),
    ("chart.cell_estimate_p50_ms", "ms"),
    ("chart.cell_estimate_max_ms", "ms"),
    // daemon engine
    ("daemon.ingest.plain.self_p50_ms", "ms"),
    ("daemon.ingest.plain.count", "count"),
    ("daemon.ingest.publish.self_p50_ms", "ms"),
    ("daemon.ingest.publish.count", "count"),
    ("daemon.ingest.checkpoint.self_p50_ms", "ms"),
    ("daemon.ingest.checkpoint.count", "count"),
    ("daemon.shard_p50_ms", "ms"),
    ("daemon.shard_p99_ms", "ms"),
    ("daemon.shard_samples", "count"),
    ("daemon.cells.reestimated", "count"),
    ("daemon.publishes", "count"),
    ("daemon.resident_records", "count"),
    ("daemon.rechart_p50_ms", "ms"),
    // daemon durability
    ("daemon.recovery_s", "s"),
    ("daemon.recover.checkpoint_load_s", "s"),
    ("daemon.recover.wal_load_s", "s"),
    ("daemon.recover.replay_s", "s"),
    ("wal.replayed_records", "count"),
    ("wal.appends", "count"),
    ("wal.fsync_p50_ms", "ms"),
    ("wal.fsync_p99_ms", "ms"),
    ("wal.bytes_per_lookup", "bytes"),
    ("ckpt.saves", "count"),
    ("ckpt.write_p50_ms", "ms"),
    ("ckpt.write_p99_ms", "ms"),
    ("ckpt.bytes", "bytes"),
    // sketch
    ("sketch.ingest", "count"),
    ("sketch.hh_evictions", "count"),
    ("sketch.peak_resident_bytes", "bytes"),
    // obs: counting allocator over the untraced timed phase
    ("alloc.count_per_lookup", "ratio"),
    ("alloc.bytes_per_lookup", "bytes"),
    // the traced run itself
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Metrics that cannot be measured from outside the program, with the
/// reason; written to every trace report so their absence is explicit.
pub const UNMEASURED: &[(&str, &str)] = &[
    (
        "dns.filter_s / faults.apply_s",
        "the streaming pipeline fuses replay, cache filter and faults inside ScenarioSpec::run; \
         their time is part of sim.run_s and needs spans inside the program",
    ),
    (
        "sched.stream.consumer_wait_s",
        "the in-order consumer's wait for producer shards happens inside ScenarioSpec::run",
    ),
    (
        "daemon.ingest.wal_s / daemon.ingest.engine_s",
        "DurableDaemon::ingest journals and ingests in one call; only wal.fsync_ns \
         (the storage append) is recorded by the program",
    ),
    (
        "time of the load steps inside DurableDaemon::open",
        "daemon.recover.checkpoint_load_s and daemon.recover.wal_load_s time \
         CheckpointManager::load_latest and Wal::load_and_repair on a copy of the crash-point \
         storage; daemon.recover.replay_s is open minus those two",
    ),
];

/// Values read straight off (or derived from) the program's own counters
/// and histograms.
pub fn from_registry(snap: &MetricsSnapshot, values: &mut BTreeMap<&'static str, f64>) {
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    for name in [
        "sim.raw_lookups",
        "sim.bots_replayed",
        "sim.stream.shards",
        "sim.stream.peak_resident_records",
        "sim.faults.input",
        "sim.faults.dropped",
        "sched.stream.backpressure_stalls",
        "sched.stream.queue_high_water",
        "sched.exec.tasks",
        "sched.exec.steals",
        "chart.cells",
        "chart.segments.scheduled",
        "chart.kernel.gap_tables_built",
        "daemon.cells.reestimated",
        "daemon.publishes",
        "daemon.resident_records",
        "wal.appends",
        "ckpt.saves",
        "sketch.ingest",
        "sketch.hh_evictions",
        "sketch.peak_resident_bytes",
    ] {
        values.insert(name, c(name));
    }
    let cache = |field: &str| -> f64 {
        snap.counters_with_prefix("cache.s")
            .filter(|k| k.name.ends_with(field))
            .fold(0.0, |sum, k| sum + k.value as f64)
    };
    let hits = cache(".pos_hits") + cache(".neg_hits");
    values.insert("dns.cache_hit_ratio", ratio(hits, hits + cache(".misses")));
    values.insert(
        "dns.filter_ratio",
        ratio(c("topology.filtered"), c("topology.lookups")),
    );
    values.insert("cache.expired_evictions", cache(".expired_evictions"));
    // The daemon's window matcher reports through daemon.ingested/matched.
    let probes = c("matcher.probes") + c("daemon.ingested");
    let matches = c("matcher.matches") + c("daemon.matched");
    values.insert("matcher.probes", probes);
    values.insert("matcher.matches", matches);
    values.insert("matcher.match_ratio", ratio(matches, probes));
    let memo_hits = c("chart.kernel.memo_hits");
    values.insert(
        "chart.kernel.memo_hit_ratio",
        ratio(memo_hits, memo_hits + c("chart.kernel.memo_misses")),
    );
    let ms = |name: &str, q: f64| histogram_quantile_ns(snap.histogram(name), q) / 1e6;
    values.insert("chart.cell_estimate_p50_ms", ms("chart.estimate_ns", 0.5));
    values.insert(
        "chart.cell_estimate_max_ms",
        snap.histogram("chart.estimate_ns")
            .map_or(0.0, |h| h.max_ns as f64 / 1e6),
    );
    values.insert("daemon.rechart_p50_ms", ms("daemon.rechart_ns", 0.5));
    values.insert("wal.fsync_p50_ms", ms("wal.fsync_ns", 0.5));
    values.insert("wal.fsync_p99_ms", ms("wal.fsync_ns", 0.99));
    values.insert("ckpt.write_p50_ms", ms("ckpt.write_ns", 0.5));
    values.insert("ckpt.write_p99_ms", ms("ckpt.write_ns", 0.99));
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Lays `values` out in catalogue order. Every catalogue entry is printed;
/// an entry the workload did not produce reads 0 (its layer is idle).
pub fn emit(catalogue: &[(&str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is missing from the catalogue"
        );
    }
    catalogue
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}
