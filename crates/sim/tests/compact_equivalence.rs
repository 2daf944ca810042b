//! Property-based referee for the ID-resident hot path: the streaming
//! pipeline replays bots as `CompactLookup` records (domain = `DomainId`,
//! resolved through the interner) and hydrates names only at the egress
//! boundary, while the materializing pipeline still replays string-keyed
//! `RawLookup`s. For **any** scenario the two must agree bit-for-bit on
//! every externally visible artefact — observed trace (hydrated names
//! included), ground truth, fault report, raw-lookup count and the
//! deterministic metrics counters — across randomly drawn families, fault
//! plans, shard widths, populations, seeds and worker counts.
//!
//! The deterministic `streaming_equivalence` suite pins the distinguished
//! corners; this suite walks the space between them.

use botmeter_dga::DgaFamily;
use botmeter_dns::{ServerId, SimDuration, SimInstant};
use botmeter_exec::ExecPolicy;
use botmeter_faults::{FaultModel, FaultPlan};
use botmeter_obs::Obs;
use botmeter_sim::{PipelineMode, ScenarioSpecBuilder};
use proptest::prelude::*;

/// Pins the worker count so parallel policies exercise the real staged
/// overlap even on single-core machines.
fn force_parallel() {
    std::env::set_var("BOTMETER_THREADS", "4");
}

/// Counters the streaming path emits that have no materializing
/// counterpart (shard count, resident high-water mark).
fn comparable(counters: Vec<botmeter_obs::CounterSnapshot>) -> Vec<botmeter_obs::CounterSnapshot> {
    counters
        .into_iter()
        .filter(|c| !c.name.starts_with("sim.stream."))
        .collect()
}

const FAMILIES: [fn() -> DgaFamily; 5] = [
    DgaFamily::murofet,
    DgaFamily::new_goz,
    DgaFamily::conficker_c,
    DgaFamily::necurs,
    DgaFamily::torpig,
];

/// One fault model per kind index, parameterised aggressively enough to
/// fire on small traces (mirrors the deterministic suite's zoo).
fn fault_model(kind: usize) -> FaultModel {
    match kind {
        0 => FaultModel::Drop { rate: 0.3 },
        1 => FaultModel::BurstLoss {
            p_enter: 0.2,
            p_exit: 0.3,
            loss: 0.9,
        },
        2 => FaultModel::Duplicate { rate: 0.25 },
        3 => FaultModel::Reorder {
            rate: 0.3,
            max_displacement: 5,
        },
        4 => FaultModel::Jitter {
            max: SimDuration::from_secs(30),
        },
        5 => FaultModel::ClockSkew {
            max: SimDuration::from_secs(120),
        },
        6 => FaultModel::Sample { keep_one_in: 3 },
        _ => FaultModel::Outage {
            server: Some(ServerId(1)),
            from: SimInstant::from_millis(3_600_000),
            until: SimInstant::from_millis(14_400_000),
        },
    }
}

/// Shard widths from degenerate (1 ms) through multi-epoch, plus the
/// default geometry.
fn shard_width(selector: usize, secs: u64) -> Option<SimDuration> {
    match selector {
        0 => None,
        1 => Some(SimDuration::from_millis(1)),
        2 => Some(SimDuration::from_secs(secs)),
        _ => Some(SimDuration::from_secs(3 * 24 * 3600)),
    }
}

proptest! {
    // Each case runs four full pipelines (materialize + streaming under
    // two policies), so keep the populations small and the case count
    // modest; the deterministic suite carries the distinguished corners.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Compact (ID-resident) streaming replay reproduces the legacy
    /// string-keyed materializing replay exactly, wherever the dice land.
    #[test]
    fn compact_streaming_replay_matches_legacy_replay(
        family_idx in 0usize..FAMILIES.len(),
        population in 4u64..32,
        epochs in 1u64..3,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        fault_kinds in prop::collection::vec(0usize..8, 0..3),
        shard_selector in 0usize..4,
        shard_secs in 1u64..7200,
        workers in 1usize..5,
    ) {
        force_parallel();
        let family = FAMILIES[family_idx];
        let faults = if fault_kinds.is_empty() {
            None
        } else {
            let mut plan = FaultPlan::new(fault_seed);
            for &kind in &fault_kinds {
                plan = plan.with(fault_model(kind));
            }
            Some(plan)
        };
        let shard = shard_width(shard_selector, shard_secs);
        let build = || {
            let mut b = botmeter_sim::ScenarioSpec::builder(family())
                .population(population)
                .num_epochs(epochs)
                .seed(seed)
                .pipeline(PipelineMode::Streaming { shard });
            if let Some(plan) = faults.clone() {
                b = b.faults(plan);
            }
            b
        };
        for policy in [ExecPolicy::Sequential, ExecPolicy::with_threads(workers)] {
            assert_equivalent(&build, policy)?;
        }
    }
}

/// Runs the same spec through both pipelines under `policy` and asserts
/// every externally visible artefact matches.
fn assert_equivalent(
    build: &impl Fn() -> ScenarioSpecBuilder,
    policy: ExecPolicy,
) -> Result<(), TestCaseError> {
    let (obs_mat, reg_mat) = Obs::collecting();
    let (obs_str, reg_str) = Obs::collecting();
    let materialized = build()
        .pipeline(PipelineMode::Materialize)
        .obs(obs_mat)
        .build()
        .expect("valid spec")
        .run(policy);
    let streamed = build()
        .obs(obs_str)
        .build()
        .expect("valid spec")
        .run_streaming(policy);
    prop_assert_eq!(
        streamed.observed(),
        materialized.observed(),
        "observed trace diverged ({:?})",
        policy
    );
    prop_assert_eq!(
        streamed.ground_truth(),
        materialized.ground_truth(),
        "ground truth diverged ({:?})",
        policy
    );
    prop_assert_eq!(
        streamed.fault_report(),
        materialized.fault_report(),
        "fault report diverged ({:?})",
        policy
    );
    prop_assert_eq!(
        streamed.raw_lookups(),
        materialized.raw_lookups(),
        "raw lookup count diverged ({:?})",
        policy
    );
    prop_assert!(
        streamed.raw().is_empty(),
        "streaming kept a raw trace ({:?})",
        policy
    );
    prop_assert_eq!(
        comparable(reg_str.snapshot().deterministic_counters()),
        comparable(reg_mat.snapshot().deterministic_counters()),
        "metrics counters diverged ({:?})",
        policy
    );
    Ok(())
}
