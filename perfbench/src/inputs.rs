//! Input generators. Every input is a pure function of the run seed; the
//! program under test only ever receives the generated inputs.

use crate::check::Truth;
use crate::stats::mix;
use botmeter_core::{BotMeter, BotMeterConfig};
use botmeter_dga::DgaFamily;
use botmeter_dns::{ObservedLookup, ServerId, SimDuration, SimInstant};
use botmeter_exec::ExecPolicy;
use botmeter_faults::{FaultModel, FaultPlan};
use botmeter_obs::Obs;
use botmeter_sim::{BenignTraffic, PipelineMode, ScenarioSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// The simulator's timestamp granularity (paper default), applied to the
/// benign lookups so they share the DGA records' resolution.
const GRANULARITY: SimDuration = SimDuration::from_millis(100);

/// Per-record loss of scenario_stream's light fault plan; the meter is
/// told the matching delivery rate.
pub const SCENARIO_DROP_RATE: f64 = 0.02;

/// The streaming newGoZ scenario of scenario_stream, with its light Drop
/// fault plan, and the meter configured with the matching delivery rate.
pub fn scenario(population: u64, epochs: u64, seed: u64, obs: Obs) -> (ScenarioSpec, BotMeter) {
    let plan = FaultPlan::new(mix(seed, 1)).with(FaultModel::Drop {
        rate: SCENARIO_DROP_RATE,
    });
    let spec = ScenarioSpec::builder(DgaFamily::new_goz())
        .population(population)
        .num_epochs(epochs)
        .seed(mix(seed, 2))
        .faults(plan)
        .pipeline(PipelineMode::Streaming { shard: None })
        .obs(obs.clone())
        .build()
        .expect("scenario parameters are valid");
    let meter = BotMeter::new(
        BotMeterConfig::new(DgaFamily::new_goz()).delivery_rate(1.0 - SCENARIO_DROP_RATE),
    )
    .with_obs(obs);
    (spec, meter)
}

/// Shape of a multi-server border stream.
pub struct BorderParams {
    pub family: fn() -> DgaFamily,
    pub servers: u32,
    pub epochs: u64,
    /// Bots summed over all servers; fixed, so every seed carries the same
    /// total load while the split across servers varies.
    pub total_bots: u64,
    /// Per-server populations are drawn log-uniformly from this range
    /// (many small servers, a few large ones), then rescaled to
    /// `total_bots`.
    pub bots_range: (f64, f64),
    /// Benign lookups added per DGA lookup.
    pub benign_per_dga: f64,
    pub catalog: usize,
    pub zipf_s: f64,
}

/// A time-ordered border stream with the simulator's ground truth.
pub struct BorderStream {
    pub lookups: Vec<ObservedLookup>,
    pub truth: Truth,
    pub family: DgaFamily,
    pub dga_lookups: usize,
}

/// Builds the border stream: one streaming `ScenarioSpec` per local
/// server, its records remapped to that server's id, plus a Zipf-catalog
/// benign majority, stably sorted by time.
pub fn border_stream(p: &BorderParams, seed: u64, policy: ExecPolicy) -> BorderStream {
    let family = (p.family)();
    let mut rng = ChaCha12Rng::seed_from_u64(mix(seed, 3));
    // One size per quantile stratum of the log-uniform range, dealt to
    // servers in seed order: which server is large changes with the seed,
    // the set of sizes does not, so every seed carries the same load.
    let (lo, hi) = p.bots_range;
    let n = p.servers as usize;
    let mut draws: Vec<f64> = (0..n)
        .map(|k| lo * (hi / lo).powf((k as f64 + 0.5) / n as f64))
        .collect();
    for k in (1..n).rev() {
        draws.swap(k, rng.gen_range(0..=k));
    }
    let scale = p.total_bots as f64 / draws.iter().sum::<f64>();

    // The servers are simulated concurrently, each run sequential; every
    // run is a pure function of its seed, so the stream does not depend on
    // the worker count.
    let outcomes = botmeter_exec::run_indexed_with(policy, &Obs::noop(), n, |k| {
        ScenarioSpec::builder(family.clone())
            .population(((draws[k] * scale).round() as u64).max(1))
            .num_epochs(p.epochs)
            .seed(mix(seed, 100 + k as u64))
            .pipeline(PipelineMode::Streaming { shard: None })
            .build()
            .expect("border scenario parameters are valid")
            .run(ExecPolicy::Sequential)
    });
    let mut lookups = Vec::new();
    let mut truth = Truth::new();
    for (k, outcome) in outcomes.iter().enumerate() {
        let server = ServerId(k as u32 + 1);
        for (epoch, &active) in outcome.ground_truth().iter().enumerate() {
            truth.insert((server, epoch as u64), active as f64);
        }
        lookups.extend(outcome.observed().iter().map(|l| ObservedLookup {
            server,
            ..l.clone()
        }));
    }
    drop(outcomes);
    let dga_lookups = lookups.len();

    let per_server_day =
        p.benign_per_dga * dga_lookups as f64 / (p.servers as f64 * p.epochs as f64);
    let benign = BenignTraffic::new(p.catalog, p.zipf_s, per_server_day.max(1.0));
    let clients: Vec<u32> = (1..=p.servers).collect();
    for epoch in 0..p.epochs {
        let day_start = SimInstant::from_millis(epoch * family.epoch_len().as_millis());
        for raw in benign.day_lookups(day_start, &clients, &mut rng) {
            lookups.push(ObservedLookup::new(
                raw.t.quantize(GRANULARITY),
                ServerId(raw.client.0),
                raw.domain,
            ));
        }
    }
    lookups.sort_by_key(|l| l.t);
    BorderStream {
        lookups,
        truth,
        family,
        dga_lookups,
    }
}
