//! `border_durable`: a multi-server Murofet border stream (its uniform
//! barrel selects the Poisson model, so estimation costs almost nothing)
//! replayed closed-loop in 4096-lookup shards into a
//! `DurableDaemon<MemStorage>` with a checkpoint every 16 shards and the
//! sketch sidecar on — the `botmeterd` defaults. Part-way through, between
//! two checkpoints, the run copies the storage and drops the daemon without
//! shutdown, reopens it from the copy (recovery) and ingests the rest.
//! Journal and checkpoint work dominate; recovery reads back what ingest
//! wrote. `MemStorage` measures the CPU cost of durability without disk
//! noise.

use crate::check::{are_mean, bit_identical, checker_rejects_perturbation};
use crate::harness::{end_to_end, guarded, measure_setup, per_layer, timed_loop, Steps, Tally};
use crate::inputs::{border_stream, BorderParams};
use crate::layers::{from_registry, ratio};
use crate::stats::{available_cores, median, peak_rss_mib, quantile};
use crate::trace::Tracer;
use crate::{Args, RunResult};
use botmeter_core::{BotMeter, BotMeterConfig, Landscape};
use botmeter_daemon::{
    BotMeterDaemon, CheckpointManager, DaemonOptions, DurabilityOptions, DurableDaemon, MemStorage,
    Storage, Wal,
};
use botmeter_dga::DgaFamily;
use botmeter_dns::ObservedLookup;
use botmeter_exec::ExecPolicy;
use botmeter_obs::{AllocSnapshot, Obs};
use botmeter_sketch::SketchConfig;
use std::collections::BTreeMap;

/// `botmeterd`'s default shard size and checkpoint cadence.
const SHARD_RECORDS: usize = 4096;
const CHECKPOINT_EVERY: usize = 16;
/// Where the crash lands: this fraction of the stream, moved to the middle
/// of its checkpoint interval so it is never on a checkpoint boundary and
/// recovery always replays half an interval of journal.
const CRASH_FRACTION: f64 = 0.6;

pub fn params(smoke: bool) -> BorderParams {
    if smoke {
        BorderParams {
            family: DgaFamily::murofet,
            servers: 4,
            epochs: 2,
            total_bots: 200,
            bots_range: (10.0, 200.0),
            benign_per_dga: 4.0,
            catalog: 2_000,
            zipf_s: 1.0,
        }
    } else {
        BorderParams {
            family: DgaFamily::murofet,
            servers: 32,
            epochs: 3,
            total_bots: 600,
            bots_range: (5.0, 150.0),
            benign_per_dga: 4.0,
            catalog: 50_000,
            zipf_s: 1.0,
        }
    }
}

fn crash_shard(shards: usize) -> usize {
    let interval = (shards as f64 * CRASH_FRACTION) as usize / CHECKPOINT_EVERY;
    (interval * CHECKPOINT_EVERY + CHECKPOINT_EVERY / 2).min(shards.saturating_sub(1))
}

/// The engine options of every daemon in this workload.
fn engine_options(
    epochs: u64,
    policy: ExecPolicy,
    sketch: SketchConfig,
    obs: Obs,
) -> DaemonOptions {
    DaemonOptions::new(0..epochs)
        .policy(policy)
        .close_lag(1)
        .retention(8)
        .auto_publish(true)
        .sketch(sketch)
        .obs(obs)
}

fn open(
    meter: &BotMeter,
    options: &DaemonOptions,
    storage: MemStorage,
) -> (DurableDaemon<MemStorage>, u64) {
    let (daemon, report) = DurableDaemon::open(
        meter.clone(),
        options.clone(),
        storage,
        DurabilityOptions::new(CHECKPOINT_EVERY as u64),
    )
    .expect("in-memory storage always opens");
    (daemon, report.replayed_records)
}

/// What recovery loads, timed on a copy of the crash-point storage.
struct LoadProbe {
    checkpoint_load_s: f64,
    wal_load_s: f64,
    wal_bytes_per_lookup: f64,
    checkpoint_bytes: f64,
}

fn probe_recovery_loads(steps: &mut Steps, storage: &MemStorage) -> LoadProbe {
    let mut copy = storage.clone();
    let ((state, _), checkpoint_load_s) = steps.step("CheckpointManager::load_latest", || {
        CheckpointManager::load_latest(&mut copy).expect("in-memory read")
    });
    let checkpoint_bytes = state.map_or(0, |state| {
        copy.read(&CheckpointManager::file_name(state.wal_seq))
            .map_or(0, |b| b.len())
    });
    let mut wal = Wal::create(storage.clone()).expect("in-memory write");
    let (contents, wal_load_s) = steps.step("Wal::load_and_repair", || {
        wal.load_and_repair()
            .expect("in-memory read")
            .expect("journal decodes")
    });
    let records: usize = contents
        .frames
        .iter()
        .map(|f| {
            serde_json::from_str::<Vec<ObservedLookup>>(&String::from_utf8_lossy(&f.payload))
                .map_or(0, |shard| shard.len())
        })
        .sum();
    let wal_bytes = wal
        .storage_mut()
        .read(botmeter_daemon::wal::WAL_FILE)
        .map_or(0, |b| b.len());
    LoadProbe {
        checkpoint_load_s,
        wal_load_s,
        wal_bytes_per_lookup: ratio(wal_bytes as f64, records as f64),
        checkpoint_bytes: checkpoint_bytes as f64,
    }
}

/// One ingest pass over the whole stream, with the crash and recovery.
struct Pass {
    ingest_s: Vec<f64>,
    recovery_s: f64,
    time_to_landscape_s: f64,
    replayed_records: u64,
    recovered_equal: bool,
    durable_ok: bool,
    landscape: Option<Landscape>,
    probe: Option<LoadProbe>,
}

fn pass(
    meter: &BotMeter,
    options: &DaemonOptions,
    stream: &[ObservedLookup],
    tracer: Option<&mut Tracer>,
    op: u64,
) -> Pass {
    let traced = tracer.is_some();
    let (mut daemon, _) = open(meter, options, MemStorage::new());
    let shards: Vec<&[ObservedLookup]> = stream.chunks(SHARD_RECORDS).collect();
    let crash = crash_shard(shards.len());
    let mut steps = Steps::new(tracer, "border_durable.pass", op);
    let mut ingest_s = Vec::with_capacity(shards.len());
    let mut ingest = |steps: &mut Steps, daemon: &mut DurableDaemon<MemStorage>, shard| {
        let checkpoint = (daemon.journal_seq() + 1).is_multiple_of(CHECKPOINT_EVERY as u64);
        let (_, s) = steps.step_as(
            |published: &Option<_>| match (checkpoint, published.is_some()) {
                (true, _) => "DurableDaemon::ingest.checkpoint",
                (false, true) => "DurableDaemon::ingest.publish",
                (false, false) => "DurableDaemon::ingest.plain",
            },
            || daemon.ingest(shard),
        );
        ingest_s.push(s);
    };
    for shard in &shards[..crash] {
        ingest(&mut steps, &mut daemon, shard);
    }

    // Crash: copy the storage, drop the daemon without shutdown.
    let seq = daemon.journal_seq();
    let before = daemon.engine().checkpoint_state(seq);
    let storage = daemon.storage_mut().clone();
    drop(daemon);
    let probe = traced.then(|| probe_recovery_loads(&mut steps, &storage));
    let ((mut daemon, replayed_records), recovery_s) =
        steps.step("DurableDaemon::open", || open(meter, options, storage));
    let recovered_equal =
        daemon.journal_seq() == seq && daemon.engine().checkpoint_state(seq) == before;

    for shard in &shards[crash..] {
        ingest(&mut steps, &mut daemon, shard);
    }
    let (_, publish_s) = steps.step("DurableDaemon::publish_now", || daemon.publish_now());
    let stats = daemon.durability_stats();
    Pass {
        time_to_landscape_s: ingest_s.iter().sum::<f64>() + recovery_s + publish_s,
        ingest_s,
        recovery_s,
        replayed_records,
        recovered_equal,
        durable_ok: stats.unjournaled_shards == 0 && !daemon.is_degraded(),
        landscape: daemon.engine().latest().map(|(_, l)| l.clone()),
        probe,
    }
}

pub fn run(args: &Args) -> RunResult {
    let p = params(args.smoke);
    let policy = ExecPolicy::with_threads(available_cores());
    let setup_reps = if args.smoke { 2 } else { 3 };
    let ((stream, meter, options), setup_s) = measure_setup(setup_reps, 1, || {
        let stream = border_stream(&p, args.seed, policy);
        let meter = BotMeter::new(BotMeterConfig::new(stream.family.clone()));
        let sketch =
            SketchConfig::new(stream.family.epoch_len()).expect("family epochs are positive");
        let options = engine_options(p.epochs, policy, sketch, Obs::noop());
        drop(open(&meter, &options, MemStorage::new()));
        (stream, meter, options)
    });
    let lookups = &stream.lookups;
    let shards = lookups.len().div_ceil(SHARD_RECORDS);
    eprintln!(
        "perfbench: {} stream of {} lookups ({} DGA), {shards} shards, crash after shard {}",
        args.workload,
        lookups.len(),
        stream.dga_lookups,
        crash_shard(shards)
    );

    let warmup = guarded(|| pass(&meter, &options, lookups, None, 0));
    let peak_rss_mb = peak_rss_mib();
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let alloc_start = AllocSnapshot::now();
    let timed = timed_loop(budget, 2, |i| {
        guarded(|| pass(&meter, &options, lookups, None, i as u64 + 1))
    });
    let alloc = AllocSnapshot::now().since(&alloc_start);

    let mut tally = Tally::default();
    let reference = guarded(|| {
        BotMeterDaemon::new(meter.clone(), options.clone())
            .expect("options are valid")
            .reference_chart(lookups)
    });
    let check_all = |tally: &mut Tally, passes: &[Option<Pass>]| {
        for pass in passes {
            let Some(pass) = pass else {
                tally.check(false);
                continue;
            };
            tally.attempted += pass.ingest_s.len() as u64;
            tally.check(match (&pass.landscape, &reference) {
                (Some(landscape), Some(reference)) => bit_identical(landscape, reference),
                _ => false,
            });
            tally.check(pass.recovered_equal);
            tally.check(pass.durable_ok);
        }
    };
    check_all(&mut tally, std::slice::from_ref(&warmup));
    check_all(&mut tally, &timed);
    tally.check(reference.as_ref().is_some_and(checker_rejects_perturbation));

    let ok: Vec<&Pass> = timed.iter().flatten().collect();
    let ttl: Vec<f64> = ok.iter().map(|p| p.time_to_landscape_s).collect();
    eprintln!("perfbench: timed passes (s): {ttl:?}");
    if !args.trace {
        let rates: Vec<f64> = ok
            .iter()
            .map(|p| lookups.len() as f64 / p.ingest_s.iter().sum::<f64>())
            .collect();
        return tally.finish(end_to_end(
            setup_s,
            peak_rss_mb,
            median(&rates),
            median(&ttl),
        ));
    }

    let mut tracer = Tracer::new();
    let mut snapshot = None;
    let traced = timed_loop(args.seconds / 2, 1, |i| {
        let (obs, registry) = Obs::collecting();
        let traced_options = options.clone().obs(obs);
        let out = guarded(|| {
            pass(
                &meter,
                &traced_options,
                lookups,
                Some(&mut tracer),
                i as u64,
            )
        });
        snapshot = Some(registry.snapshot());
        out
    });
    check_all(&mut tally, &traced);

    let shard_ms: Vec<f64> = ok
        .iter()
        .flat_map(|p| p.ingest_s.iter().map(|s| s * 1e3))
        .collect();
    let self_s = tracer.self_seconds();
    let mut values = BTreeMap::new();
    if let Some(snap) = &snapshot {
        from_registry(snap, &mut values);
    }
    for (class, p50, count) in [
        (
            "DurableDaemon::ingest.plain",
            "daemon.ingest.plain.self_p50_ms",
            "daemon.ingest.plain.count",
        ),
        (
            "DurableDaemon::ingest.publish",
            "daemon.ingest.publish.self_p50_ms",
            "daemon.ingest.publish.count",
        ),
        (
            "DurableDaemon::ingest.checkpoint",
            "daemon.ingest.checkpoint.self_p50_ms",
            "daemon.ingest.checkpoint.count",
        ),
    ] {
        let samples = self_s.get(class).map_or(&[][..], Vec::as_slice);
        values.insert(p50, median(samples) * 1e3);
        values.insert(count, samples.len() as f64);
    }
    values.insert("daemon.shard_p50_ms", quantile(&shard_ms, 0.5));
    values.insert("daemon.shard_p99_ms", quantile(&shard_ms, 0.99));
    values.insert("daemon.shard_samples", shard_ms.len() as f64);
    values.insert(
        "daemon.recovery_s",
        median(&ok.iter().map(|p| p.recovery_s).collect::<Vec<_>>()),
    );
    if let Some(Some(pass)) = traced.last() {
        values.insert("wal.replayed_records", pass.replayed_records as f64);
        if let Some(probe) = &pass.probe {
            values.insert("daemon.recover.checkpoint_load_s", probe.checkpoint_load_s);
            values.insert("daemon.recover.wal_load_s", probe.wal_load_s);
            values.insert(
                "daemon.recover.replay_s",
                (pass.recovery_s - probe.checkpoint_load_s - probe.wal_load_s).max(0.0),
            );
            values.insert("wal.bytes_per_lookup", probe.wal_bytes_per_lookup);
            values.insert("ckpt.bytes", probe.checkpoint_bytes);
        }
    }
    values.insert("exec.threads", policy.worker_threads() as f64);
    values.insert(
        "core.are_mean",
        reference
            .as_ref()
            .map_or(0.0, |r| are_mean(r, &stream.truth)),
    );
    let ingested = (ok.len() * lookups.len()) as f64;
    values.insert(
        "alloc.count_per_lookup",
        ratio(alloc.count as f64, ingested),
    );
    values.insert(
        "alloc.bytes_per_lookup",
        ratio(alloc.bytes as f64, ingested),
    );
    let traced_ttl: Vec<f64> = traced
        .iter()
        .flatten()
        .map(|p| p.time_to_landscape_s)
        .collect();
    values.insert(
        "trace.overhead_ratio",
        ratio(median(&traced_ttl), median(&ttl)) - 1.0,
    );
    tally.finish(per_layer(args, &tracer, values))
}
