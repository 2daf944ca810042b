//! `border_chart`: a multi-server newGoZ border stream with a benign
//! majority, built in set-up; the timed phase matches it and runs one batch
//! chart. The Bernoulli/Theorem-1 kernel over many uneven cells dominates,
//! the matcher's name path rejects the benign majority, and `sim`/`dns` are
//! idle while timed.

use crate::check::{are_mean, bit_identical, checker_rejects_perturbation};
use crate::harness::{
    end_to_end, guarded, measure_setup, per_layer, self_p50, timed_loop, Steps, Tally,
};
use crate::inputs::{border_stream, BorderParams};
use crate::layers::{from_registry, ratio};
use crate::stats::{available_cores, median, peak_rss_mib};
use crate::trace::Tracer;
use crate::{Args, RunResult};
use botmeter_core::{BotMeter, BotMeterConfig, ChartRequest, Landscape};
use botmeter_dga::DgaFamily;
use botmeter_dns::ObservedLookup;
use botmeter_exec::ExecPolicy;
use botmeter_matcher::match_stream_recorded;
use botmeter_obs::{AllocSnapshot, Obs};
use std::collections::BTreeMap;
use std::time::Instant;

pub fn params(smoke: bool) -> BorderParams {
    if smoke {
        BorderParams {
            family: DgaFamily::new_goz,
            servers: 4,
            epochs: 2,
            total_bots: 400,
            bots_range: (20.0, 400.0),
            benign_per_dga: 4.0,
            catalog: 2_000,
            zipf_s: 1.0,
        }
    } else {
        BorderParams {
            family: DgaFamily::new_goz,
            servers: 32,
            epochs: 3,
            total_bots: 1_200,
            bots_range: (5.0, 200.0),
            benign_per_dga: 4.0,
            catalog: 50_000,
            zipf_s: 1.0,
        }
    }
}

fn chart(
    meter: &BotMeter,
    stream: &[ObservedLookup],
    epochs: u64,
    policy: ExecPolicy,
    obs: &Obs,
    tracer: Option<&mut Tracer>,
    op: u64,
) -> (Landscape, f64) {
    let mut steps = Steps::new(tracer, "border_chart.iteration", op);
    let start = Instant::now();
    let (matched, _) = steps.step("matcher_for+match_stream", || {
        let matcher = meter.matcher_for(0..epochs);
        match_stream_recorded(stream, &matcher, policy, obs)
    });
    let (landscape, _) = steps.step("chart_with", || {
        meter.chart_with(
            &ChartRequest::from_matched(&matched)
                .epochs(0..epochs)
                .policy(policy),
        )
    });
    (landscape, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> RunResult {
    let p = params(args.smoke);
    let policy = ExecPolicy::with_threads(available_cores());
    let setup_reps = if args.smoke { 2 } else { 3 };
    let ((stream, meter), setup_s) = measure_setup(setup_reps, 1, || {
        let stream = border_stream(&p, args.seed, policy);
        let meter = BotMeter::new(BotMeterConfig::new(stream.family.clone()));
        (stream, meter)
    });
    let lookups = &stream.lookups;
    eprintln!(
        "perfbench: {} stream of {} lookups ({} DGA)",
        args.workload,
        lookups.len(),
        stream.dga_lookups
    );
    let noop = Obs::noop();
    let chart_once =
        |op: usize| guarded(|| chart(&meter, lookups, p.epochs, policy, &noop, None, op as u64));

    let warmup = chart_once(0);
    let peak_rss_mb = peak_rss_mib();
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let alloc_start = AllocSnapshot::now();
    let timed = timed_loop(budget, 3, |i| chart_once(i + 1));
    let alloc = AllocSnapshot::now().since(&alloc_start);

    let mut tally = Tally::default();
    let single_start = Instant::now();
    let reference = guarded(|| {
        meter.chart_with(
            &ChartRequest::new(lookups)
                .epochs(0..p.epochs)
                .policy(ExecPolicy::Sequential),
        )
    });
    let single_s = single_start.elapsed().as_secs_f64();
    let check_all = |tally: &mut Tally, runs: &[Option<(Landscape, f64)>]| {
        for run in runs {
            tally.check(match (run, &reference) {
                (Some((landscape, _)), Some(reference)) => bit_identical(landscape, reference),
                _ => false,
            });
        }
    };
    check_all(&mut tally, std::slice::from_ref(&warmup));
    check_all(&mut tally, &timed);
    tally.check(reference.as_ref().is_some_and(checker_rejects_perturbation));

    let times: Vec<f64> = timed.iter().flatten().map(|(_, s)| *s).collect();
    eprintln!("perfbench: timed iterations (s): {times:?}");
    if !args.trace {
        let rates: Vec<f64> = times.iter().map(|s| lookups.len() as f64 / s).collect();
        return tally.finish(end_to_end(
            setup_s,
            peak_rss_mb,
            median(&rates),
            median(&times),
        ));
    }

    let mut tracer = Tracer::new();
    let mut snapshot = None;
    let traced = timed_loop(args.seconds / 2, 2, |i| {
        let (obs, registry) = Obs::collecting();
        let traced_meter = meter.clone().with_obs(obs.clone());
        let out = guarded(|| {
            chart(
                &traced_meter,
                lookups,
                p.epochs,
                policy,
                &obs,
                Some(&mut tracer),
                i as u64,
            )
        });
        snapshot = Some(registry.snapshot());
        out
    });
    check_all(&mut tally, &traced);
    let traced_s: Vec<f64> = traced.iter().flatten().map(|(_, s)| *s).collect();
    let charted = (times.len() * lookups.len()) as f64;

    let mut values = BTreeMap::new();
    if let Some(snap) = &snapshot {
        from_registry(snap, &mut values);
    }
    values.insert(
        "matcher.match_s",
        self_p50(&tracer, "matcher_for+match_stream"),
    );
    values.insert("core.chart_s", self_p50(&tracer, "chart_with"));
    values.insert(
        "core.are_mean",
        reference
            .as_ref()
            .map_or(0.0, |r| are_mean(r, &stream.truth)),
    );
    values.insert("exec.threads", policy.worker_threads() as f64);
    values.insert("exec.scaling_ratio", ratio(single_s, median(&times)));
    values.insert("alloc.count_per_lookup", ratio(alloc.count as f64, charted));
    values.insert("alloc.bytes_per_lookup", ratio(alloc.bytes as f64, charted));
    values.insert(
        "trace.overhead_ratio",
        ratio(median(&traced_s), median(&times)) - 1.0,
    );
    tally.finish(per_layer(args, &tracer, values))
}
