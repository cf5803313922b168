//! The transport workloads' measurement process: one cold solve of the
//! workload's plan, from `RunPlan::build_problem` to the engine's report,
//! under `Serial`.

use std::time::Instant;

use mcs_core::engine::{self, Algorithm, NoProgress, RunPlan, Serial};
use mcs_prof::Counters;

use crate::json::{bits, count, num, nums, obj, JsonValue};
use crate::probes;
use crate::trace::{named, self_seconds, spans_json, TracedSerial, Tracer};
use crate::workload::Workload;

/// One cold solve. Traced solves add spans, event-stage statistics, the
/// geometry and cross-section counters and the kernel probes, all
/// gathered after the solve's clock has stopped.
pub fn solve(workload: Workload, seed: u64, trace: bool) -> JsonValue {
    let plan = workload.plan(seed).expect("a transport workload");
    let mut tracer = Tracer::new(trace);

    let t0 = Instant::now();
    let problem = tracer.scope("build_problem", None, || plan.build_problem());
    let setup_s = t0.elapsed().as_secs_f64();
    let run = tracer.begin("engine_run", None, None);
    let report = if trace {
        let mut policy = TracedSerial::new(&mut tracer, run);
        engine::run_with_problem_observed(&problem, &plan, &mut policy, &mut NoProgress)
    } else {
        engine::run_with_problem_observed(&problem, &plan, &mut Serial::new(), &mut NoProgress)
    }
    .into_eigenvalue();
    tracer.end(run);
    let wall_s = t0.elapsed().as_secs_f64();

    // The engine's own per-batch transport clock (the call to the policy).
    let batch_wall: Vec<f64> = report
        .batches
        .iter()
        .map(|b| b.wall.as_secs_f64())
        .collect();
    let mut fields = vec![
        ("setup_s", num(setup_s)),
        ("wall_s", num(wall_s)),
        ("batch_wall_s", nums(&batch_wall)),
        ("particles_per_batch", count(plan.particles as u64)),
        ("k_mean_bits", bits(report.result.k_mean.to_bits())),
        ("k0_bits", bits(report.k_history[0].to_bits())),
    ];

    if trace {
        let mut counters = Counters::new();
        problem.traversal.export_counters(&mut counters);
        problem.xs.export_counters(&mut counters);
        let stats = report.result.event_stats.unwrap_or_default();
        let probe = tracer.begin("kernel_probes", None, None);
        let p = probes::run(&problem, seed);
        tracer.end(probe);
        let spans = tracer.into_spans();
        let secs = |name| named(&spans, name).map(|s| s.seconds()).collect::<Vec<_>>();
        fields.extend([
            ("build_s", num(secs("build_problem")[0])),
            ("loop_self_s", num(self_seconds(&spans, run.0))),
            ("batch_s", nums(&secs("transport_batch"))),
            (
                "event",
                obj([
                    ("iterations", count(stats.iterations)),
                    ("lookups", count(stats.lookups)),
                    ("peak_bank", count(stats.peak_bank)),
                    ("stage_s", nums(&stats.stage_seconds)),
                ]),
            ),
            ("counters", obj(counters.iter().map(|(k, v)| (k, count(v))))),
            ("probes", p.to_json()),
            ("spans", spans_json(&spans)),
        ]);
    }

    fields.push(("rss_mb", num(crate::peak_rss_mb())));
    obj(fields)
}

/// A cold `build_problem` alone: one more set-up sample.
pub fn setup_child(workload: Workload, seed: u64) -> JsonValue {
    let plan = workload.plan(seed).expect("a transport workload");
    let t0 = Instant::now();
    let problem = plan.build_problem();
    let setup_s = t0.elapsed().as_secs_f64();
    drop(problem);
    obj([("setup_s", num(setup_s))])
}

/// One batch of the workload's plan under the other algorithm: its k
/// bits must equal the solve's first-batch k bits.
pub fn cross_check(workload: Workload, seed: u64) -> JsonValue {
    let plan = workload.plan(seed).expect("a transport workload");
    let other = RunPlan {
        algorithm: match plan.algorithm {
            Algorithm::History => Algorithm::EventBanking,
            Algorithm::EventBanking => Algorithm::History,
        },
        inactive: 1,
        active: 0,
        ..plan
    };
    let report = engine::run(&other, &mut Serial::new()).into_eigenvalue();
    obj([("k0_bits", bits(report.k_history[0].to_bits()))])
}

/// The k_mean bits of the workload's plan at `seed` (a stored reference).
pub fn reference_bits(workload: Workload, seed: u64) -> u64 {
    let plan = workload.plan(seed).expect("a transport workload");
    let report = engine::run(&plan, &mut Serial::new()).into_eigenvalue();
    report.result.k_mean.to_bits()
}
