//! `scenario_stream`: one large newGoZ `ScenarioSpec` over several epochs in
//! `PipelineMode::Streaming`, with a light Drop fault plan and the matching
//! delivery rate, then matched and charted. The fused replay, cache-filter
//! and fault producer does most of the work; `daemon` and `sketch` are idle
//! and `core` charts one cell per epoch.

use crate::check::{are_mean, bit_identical, checker_rejects_perturbation, Truth};
use crate::harness::{
    end_to_end, guarded, measure_setup, per_layer, self_p50, timed_loop, Steps, Tally,
};
use crate::inputs::scenario;
use crate::layers::{from_registry, ratio};
use crate::stats::{available_cores, median, peak_rss_mib};
use crate::trace::Tracer;
use crate::{Args, RunResult};
use botmeter_core::{BotMeter, ChartRequest, Landscape};
use botmeter_dns::ServerId;
use botmeter_exec::ExecPolicy;
use botmeter_matcher::match_stream_recorded;
use botmeter_obs::{AllocSnapshot, Obs};
use botmeter_sim::ScenarioSpec;
use std::collections::BTreeMap;
use std::time::Instant;

struct Sizes {
    population: u64,
    epochs: u64,
    setup_reps: usize,
    setup_batch: usize,
    min_iters: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            population: 400,
            epochs: 2,
            setup_reps: 3,
            setup_batch: 100,
            min_iters: 2,
        }
    } else {
        Sizes {
            population: 20_000,
            epochs: 3,
            setup_reps: 15,
            setup_batch: 2_000,
            min_iters: 3,
        }
    }
}

/// One timed operation: simulate, match, chart.
struct Iteration {
    sim_s: f64,
    total_s: f64,
    raw_lookups: u64,
    landscape: Landscape,
}

fn iterate(
    spec: &ScenarioSpec,
    meter: &BotMeter,
    epochs: u64,
    policy: ExecPolicy,
    obs: &Obs,
    tracer: Option<&mut Tracer>,
    op: u64,
) -> Iteration {
    let mut steps = Steps::new(tracer, "scenario_stream.iteration", op);
    let start = Instant::now();
    let (outcome, sim_s) = steps.step("ScenarioSpec::run", || spec.run(policy));
    let (matched, _) = steps.step("matcher_for+match_stream", || {
        let matcher = meter.matcher_for(0..epochs);
        match_stream_recorded(outcome.observed(), &matcher, policy, obs)
    });
    let (landscape, _) = steps.step("chart_with", || {
        meter.chart_with(
            &ChartRequest::from_matched(&matched)
                .epochs(0..epochs)
                .policy(policy),
        )
    });
    Iteration {
        sim_s,
        total_s: start.elapsed().as_secs_f64(),
        raw_lookups: outcome.raw_lookups(),
        landscape,
    }
}

pub fn run(args: &Args) -> RunResult {
    let sz = sizes(args.smoke);
    let policy = ExecPolicy::with_threads(available_cores());
    let ((spec, meter), setup_s) = measure_setup(sz.setup_reps, sz.setup_batch, || {
        scenario(sz.population, sz.epochs, args.seed, Obs::noop())
    });
    let noop = Obs::noop();
    let run_once =
        |op: usize| guarded(|| iterate(&spec, &meter, sz.epochs, policy, &noop, None, op as u64));

    // Warm-up: the first run pays page faults and allocator growth. Peak
    // memory is read right after it: resident memory keeps growing with
    // every further run in one process, so a later reading would depend on
    // how many runs fit in the timed phase.
    let warmup = run_once(0);
    let peak_rss_mb = peak_rss_mib();
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let alloc_start = AllocSnapshot::now();
    let timed = timed_loop(budget, sz.min_iters, |i| run_once(i + 1));
    let alloc = AllocSnapshot::now().since(&alloc_start);

    // Output checks: every landscape bit-identical to a sequential reference
    // charted through the one-call API; the reference run doubles as the
    // single-thread baseline.
    let mut tally = Tally::default();
    let single_start = Instant::now();
    let reference = guarded(|| {
        let outcome = spec.run(ExecPolicy::Sequential);
        let landscape = meter.chart_with(
            &ChartRequest::new(outcome.observed())
                .epochs(0..sz.epochs)
                .policy(ExecPolicy::Sequential),
        );
        let truth: Truth = outcome
            .ground_truth()
            .iter()
            .enumerate()
            .map(|(e, &n)| ((ServerId(1), e as u64), n as f64))
            .collect();
        (landscape, truth)
    });
    let single_s = single_start.elapsed().as_secs_f64();
    for it in std::iter::once(&warmup).chain(&timed) {
        tally.check(match (it, &reference) {
            (Some(it), Some((reference, _))) => bit_identical(&it.landscape, reference),
            _ => false,
        });
    }
    tally.check(
        reference
            .as_ref()
            .is_some_and(|(r, _)| checker_rejects_perturbation(r)),
    );

    let ok: Vec<&Iteration> = timed.iter().flatten().collect();
    eprintln!(
        "perfbench: timed iterations (s): {:?}",
        ok.iter().map(|it| it.total_s).collect::<Vec<_>>()
    );
    let total_s: Vec<f64> = ok.iter().map(|it| it.total_s).collect();
    if !args.trace {
        let rates: Vec<f64> = ok
            .iter()
            .map(|it| it.raw_lookups as f64 / it.sim_s)
            .collect();
        return tally.finish(end_to_end(
            setup_s,
            peak_rss_mb,
            median(&rates),
            median(&total_s),
        ));
    }

    // Traced repetitions: a collecting recorder on the scenario and meter,
    // spans around each public call.
    let mut tracer = Tracer::new();
    let mut snapshot = None;
    let traced = timed_loop(args.seconds / 2, sz.min_iters, |i| {
        let (obs, registry) = Obs::collecting();
        let (spec, meter) = scenario(sz.population, sz.epochs, args.seed, obs.clone());
        let it = guarded(|| {
            iterate(
                &spec,
                &meter,
                sz.epochs,
                policy,
                &obs,
                Some(&mut tracer),
                i as u64,
            )
        });
        snapshot = Some(registry.snapshot());
        it
    });
    for it in &traced {
        tally.check(match (it, &reference) {
            (Some(it), Some((reference, _))) => bit_identical(&it.landscape, reference),
            _ => false,
        });
    }
    let traced_s: Vec<f64> = traced.iter().flatten().map(|it| it.total_s).collect();
    let lookups: u64 = ok.iter().map(|it| it.raw_lookups).sum();

    let mut values = BTreeMap::new();
    if let Some(snap) = &snapshot {
        from_registry(snap, &mut values);
    }
    values.insert("sim.run_s", self_p50(&tracer, "ScenarioSpec::run"));
    values.insert(
        "matcher.match_s",
        self_p50(&tracer, "matcher_for+match_stream"),
    );
    values.insert("core.chart_s", self_p50(&tracer, "chart_with"));
    values.insert(
        "core.are_mean",
        reference.as_ref().map_or(0.0, |(r, t)| are_mean(r, t)),
    );
    values.insert("exec.threads", policy.worker_threads() as f64);
    values.insert("exec.scaling_ratio", ratio(single_s, median(&total_s)));
    values.insert(
        "alloc.count_per_lookup",
        ratio(alloc.count as f64, lookups as f64),
    );
    values.insert(
        "alloc.bytes_per_lookup",
        ratio(alloc.bytes as f64, lookups as f64),
    );
    values.insert(
        "trace.overhead_ratio",
        ratio(median(&traced_s), median(&total_s)) - 1.0,
    );
    tally.finish(per_layer(args, &tracer, values))
}
