//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <large-event|smr-event|smr-history|serve-mixed|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every measurement runs in a fresh process (this binary re-executed
//! with `--child`), so set-up and memory are cold as they are for
//! `mcs run`. The parent only spawns, checks and summarizes: it prints
//! every metric with its unit on standard error, and as the last line
//! of standard output one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` gives the end-to-end metrics;
//! `--trace 1` gives the per-layer metrics from traced processes and
//! writes their spans to `.bench_out/`. See README.md.

mod json;
mod probes;
mod serve;
mod stats;
mod trace;
mod transport;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::{bits_at, f64_at, f64s_at, obj, render, u64_at, JsonValue};
use stats::{median, percentile, tail, valid_metric_name, Outcomes};
use workload::Workload;

/// End-to-end metrics and their units, reported by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("particles_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("plans_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics and their units, reported by every `--trace 1` run.
/// A layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("engine.transport_s", "s"),
    ("engine.loop_self_s", "s"),
    ("engine.batch_p50_s", "s"),
    ("event.locate_s", "s"),
    ("event.xs_lookup_s", "s"),
    ("event.sample_distance_s", "s"),
    ("event.boundary_s", "s"),
    ("event.advance_collide_s", "s"),
    ("event.compact_s", "s"),
    ("event.iterations", "count"),
    ("event.lookups", "count"),
    ("event.peak_bank", "count"),
    ("geom.finds", "count"),
    ("geom.find_steps", "count"),
    ("geom.surface_tests", "count"),
    ("geom.boundary_calls", "count"),
    ("geom.find_ns", "ns"),
    ("geom.distance_ns", "ns"),
    ("xs.lookups", "count"),
    ("xs.bin_scan_steps", "count"),
    ("xs.gather_span_bytes", "bytes"),
    ("xs.index_bytes", "bytes"),
    ("xs.macro_ns", "ns"),
    ("xs.macro_vector_ns", "ns"),
    ("setup.build_s", "s"),
    ("serve.accept_p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.coalesced", "count"),
    ("serve.cold_runs", "count"),
    ("serve.rejected", "count"),
    ("serve.saved_frac", "frac"),
    ("serve.xs_lookups", "count"),
    ("trace.overhead_frac", "frac"),
    ("failed_frac", "frac"),
];

/// Fewest untraced solves a transport run reports from.
const MIN_SOLVES: usize = 3;
/// Fewest traced batches: the batch p50 needs ten samples above it.
const MIN_TRACED_BATCHES: usize = 20;
/// Set-up samples per transport run: solves, topped up with builds alone.
const SETUP_SAMPLES: usize = 9;
/// Cold server starts per serve run (the set-up samples).
const SERVE_SETUP_SAMPLES: usize = 15;
/// Stop starting measurement processes after this long, whatever the
/// other targets, so a run ends well inside three minutes.
const TIME_CAP_S: f64 = 120.0;
/// Where traced runs write their spans (relative to the working directory).
const TRACE_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: perfbench --workload <large-event|smr-event|smr-history|serve-mixed|all> \
--seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        child: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--child" => args.child = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Peak resident set size of this process (MiB), from `/proc`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run this binary again with `args`; return its report (last stdout
/// line) and the caller-side latency. The child's stderr passes through.
fn run_child(args: &[String]) -> Result<(JsonValue, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let t0 = Instant::now();
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a measurement process: {e}"))?;
    let latency = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("measurement process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or("measurement process printed nothing")?;
    Ok((JsonValue::parse(line)?, latency))
}

/// One run's result: outcomes, metric values, and notes for the summary.
struct Report {
    outcomes: Outcomes,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    spans: Vec<JsonValue>,
}

impl Report {
    fn new() -> Report {
        Report {
            outcomes: Outcomes::default(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Median of a sample set, noting its size.
    fn set_median(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        self.set(name, median(samples) * scale);
        self.notes
            .push(format!("{name}: median of {}", samples.len()));
    }

    /// A percentile under the ten-beyond rule, noting its sample count.
    /// Short of samples for `p`, a tail stands at the highest percentile
    /// that has ten samples beyond it, and a middle at the median; the
    /// note says which.
    fn set_percentile(&mut self, name: &'static str, samples: &[f64], p: f64, scale: f64) {
        let found = if p > 50.0 {
            tail(samples, p)
        } else {
            percentile(samples, p).map(|q| (p, q))
        };
        match found {
            Some((at, q)) => {
                self.set(name, q.value * scale);
                self.notes
                    .push(format!("{name}: p{at:.1} of {} ({} beyond)", q.n, q.beyond));
            }
            None if samples.is_empty() => self.set(name, 0.0),
            None => {
                self.set(name, median(samples) * scale);
                self.notes.push(format!(
                    "{name}: median of {} (too few samples for p{p})",
                    samples.len()
                ));
            }
        }
    }
}

fn child_args(kind: &str, w: Workload, seed: u64, trace: bool) -> Vec<String> {
    let trace = if trace { "1" } else { "0" };
    let seed = seed.to_string();
    [
        "--child",
        kind,
        "--workload",
        w.name(),
        "--seed",
        &seed,
        "--trace",
        trace,
    ]
    .map(String::from)
    .to_vec()
}

/// Check one solve's k bits against the stored reference, or without
/// one against the first solve of the run (fresh processes must agree).
fn check_solve(rep: &JsonValue, expect: &mut Option<u64>) -> Result<bool, String> {
    let k = bits_at(rep, "k_mean_bits")?;
    let expected = *expect.get_or_insert(k);
    if k != expected {
        eprintln!("perfbench: k_mean bits {k:016x}, expected {expected:016x}");
    }
    Ok(k == expected)
}

fn transport_run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut r = Report::new();
    let mut expect = workload::reference(w, seed);
    let mut plain: Vec<(JsonValue, f64)> = Vec::new();
    let mut traced: Vec<JsonValue> = Vec::new();
    let mut traced_batches = 0;
    let min_plain = if trace { 2 } else { MIN_SOLVES };
    let start = Instant::now();
    loop {
        let traced_turn = trace && plain.len() > traced.len();
        match run_child(&child_args("solve", w, seed, traced_turn))
            .and_then(|(rep, lat)| Ok((check_solve(&rep, &mut expect)?, rep, lat)))
        {
            Ok((ok, rep, latency)) => {
                r.outcomes.record(ok);
                if ok && traced_turn {
                    traced_batches += f64s_at(&rep, "batch_s")?.len();
                    traced.push(rep);
                } else if ok {
                    plain.push((rep, latency));
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                r.outcomes.record(false);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= seconds
            && plain.len() >= min_plain
            && (!trace || (traced.len() >= 2 && traced_batches >= MIN_TRACED_BATCHES));
        if enough || elapsed >= TIME_CAP_S || r.outcomes.failed >= 3 {
            break;
        }
    }
    if plain.is_empty() || (trace && traced.is_empty()) {
        return Err("no solve succeeded".into());
    }
    r.notes.push(format!(
        "k_mean bits {:016x} ({})",
        expect.expect("set by the first solve"),
        if workload::reference(w, seed).is_some() {
            "stored reference"
        } else {
            "no stored reference"
        }
    ));
    // The contract check, outside the timed solves: one batch of the
    // plan under the other algorithm gives the same first-batch k bits.
    let (cross, _) = run_child(&child_args("cross-check", w, seed, false))?;
    let (k0, other) = (
        bits_at(&plain[0].0, "k0_bits")?,
        bits_at(&cross, "k0_bits")?,
    );
    if k0 != other {
        eprintln!(
            "perfbench: first-batch k {k0:016x} differs under the other algorithm: {other:016x}"
        );
        r.outcomes.fail_counted();
    }
    let of = |reps: &[&JsonValue], key: &str| -> Result<Vec<f64>, String> {
        reps.iter().map(|rep| f64_at(rep, key)).collect()
    };
    let plain_reps: Vec<&JsonValue> = plain.iter().map(|(rep, _)| rep).collect();
    let wall = of(&plain_reps, "wall_s")?;

    if !trace {
        // Transported particles ÷ transport seconds over every batch of
        // every solve. Sums and means over the whole run hold steadier than
        // medians of its five to eight solves: contention on a shared host
        // slows whole seconds at a time, by up to a fifth, rather than
        // leaving rare outliers.
        let (mut particles, mut seconds) = (0.0, 0.0);
        let (mut batch_latency, mut solve_batch_mean) = (Vec::new(), Vec::new());
        for rep in &plain_reps {
            let batches = f64s_at(rep, "batch_wall_s")?;
            let sum: f64 = batches.iter().sum();
            particles += f64_at(rep, "particles_per_batch")? * batches.len() as f64;
            seconds += sum;
            solve_batch_mean.push(sum / batches.len() as f64);
            batch_latency.extend(batches);
        }
        let caller: Vec<f64> = plain.iter().map(|(_, l)| *l).collect();
        r.set("particles_per_s", particles / seconds);
        r.set("wall_s", wall.iter().sum::<f64>() / wall.len() as f64);
        r.notes.push(format!("wall_s: mean of {}", wall.len()));
        let mut setup = of(&plain_reps, "setup_s")?;
        while setup.len() < SETUP_SAMPLES {
            let (rep, _) = run_child(&child_args("setup", w, seed, false))?;
            setup.push(f64_at(&rep, "setup_s")?);
        }
        r.set_median("setup_s", &setup, 1.0);
        r.set_median("peak_rss_mb", &of(&plain_reps, "rss_mb")?, 1.0);
        r.set(
            "plans_per_s",
            caller.len() as f64 / caller.iter().sum::<f64>(),
        );
        // A run's progress reaches its user once per batch. The middle is
        // taken over solves, each its mean batch time: the host's fast and
        // slow spells split the batches of one run into two modes, and a
        // median of batches flips between them.
        r.set_median("latency_p50_ms", &solve_batch_mean, 1e3);
        r.set_percentile("latency_p99_ms", &batch_latency, 99.0, 1e3);
        return Ok(r);
    }

    let traced_reps: Vec<&JsonValue> = traced.iter().collect();
    let first = traced_reps[0];
    let mut batch_sum = Vec::new();
    let mut loop_self = Vec::new();
    let mut batches = Vec::new();
    for rep in &traced_reps {
        let b = f64s_at(rep, "batch_s")?;
        batch_sum.push(b.iter().sum());
        loop_self.push(f64_at(rep, "loop_self_s")?);
        batches.extend(b);
    }
    r.set_median("engine.transport_s", &batch_sum, 1.0);
    r.set_median("engine.loop_self_s", &loop_self, 1.0);
    r.set_percentile("engine.batch_p50_s", &batches, 50.0, 1.0);
    let stages: Vec<Vec<f64>> = traced_reps
        .iter()
        .map(|rep| {
            rep.get("event")
                .ok_or("no event stats".to_string())
                .and_then(|e| f64s_at(e, "stage_s"))
        })
        .collect::<Result<_, _>>()?;
    const STAGES: [&str; 6] = [
        "event.locate_s",
        "event.xs_lookup_s",
        "event.sample_distance_s",
        "event.boundary_s",
        "event.advance_collide_s",
        "event.compact_s",
    ];
    for (i, name) in STAGES.into_iter().enumerate() {
        let per_rep: Vec<f64> = stages.iter().map(|s| s[i]).collect();
        r.set(name, median(&per_rep));
    }
    let event = first.get("event").ok_or("no event stats")?;
    r.set("event.iterations", u64_at(event, "iterations")? as f64);
    r.set("event.lookups", u64_at(event, "lookups")? as f64);
    r.set("event.peak_bank", u64_at(event, "peak_bank")? as f64);
    let counters = first.get("counters").ok_or("no counters")?;
    for name in [
        "geom.finds",
        "geom.find_steps",
        "geom.surface_tests",
        "geom.boundary_calls",
        "xs.lookups",
        "xs.bin_scan_steps",
        "xs.gather_span_bytes",
        "xs.index_bytes",
    ] {
        r.set(name, u64_at(counters, name)? as f64);
    }
    set_probes(&mut r, &traced_reps)?;
    r.set_median("setup.build_s", &of(&traced_reps, "build_s")?, 1.0);
    let traced_wall = of(&traced_reps, "wall_s")?;
    r.set(
        "trace.overhead_frac",
        median(&traced_wall) / median(&wall) - 1.0,
    );
    r.notes.push(format!(
        "trace.overhead_frac: median traced wall_s of {} against untraced of {}",
        traced_wall.len(),
        wall.len()
    ));
    r.spans = traced
        .iter()
        .filter_map(|rep| rep.get("spans").cloned())
        .collect();
    Ok(r)
}

fn set_probes(r: &mut Report, reps: &[&JsonValue]) -> Result<(), String> {
    for (name, key) in [
        ("geom.find_ns", "find_ns"),
        ("geom.distance_ns", "distance_ns"),
        ("xs.macro_ns", "macro_ns"),
        ("xs.macro_vector_ns", "macro_vector_ns"),
    ] {
        let v: Vec<f64> = reps
            .iter()
            .map(|rep| {
                rep.get("probes")
                    .ok_or("no probes".to_string())
                    .and_then(|p| f64_at(p, key))
            })
            .collect::<Result<_, _>>()?;
        r.set_median(name, &v, 1.0);
    }
    Ok(())
}

fn serve_run(seed: u64, trace: bool) -> Result<Report, String> {
    let w = Workload::ServeMixed;
    let mut r = Report::new();
    let mut setup = Vec::new();
    if !trace {
        for _ in 0..SERVE_SETUP_SAMPLES {
            match run_child(&child_args("setup", w, seed, false)) {
                Ok((rep, _)) => {
                    let ok = rep.get("ok").and_then(JsonValue::as_bool) == Some(true);
                    r.outcomes.record(ok);
                    setup.push(f64_at(&rep, "setup_s")?);
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    r.outcomes.record(false);
                }
            }
        }
    }
    let mut loops = Vec::new();
    let modes: &[bool] = if trace { &[false, true] } else { &[false] };
    for &traced in modes {
        let (rep, _) = run_child(&child_args("serve-loop", w, seed, traced))?;
        r.outcomes.attempted += u64_at(&rep, "attempted")?;
        r.outcomes.failed += u64_at(&rep, "failed")?;
        loops.push(rep);
    }
    // Without a stored reference, the digest of an in-process run of
    // every distinct plan in the sequences stands in (outside the loops).
    let expect = match workload::reference(w, seed) {
        Some(b) => b,
        None => bits_at(
            &run_child(&child_args("reference", w, seed, false))?.0,
            "bits",
        )?,
    };
    r.notes
        .push(format!("answer digest expected {expect:016x}"));
    for rep in &loops {
        let digest = bits_at(rep, "digest")?;
        if digest != expect {
            eprintln!("perfbench: answer digest {digest:016x}, expected {expect:016x}");
            r.outcomes.fail_counted();
        }
    }

    let plain = &loops[0];
    let latency = f64s_at(plain, "latency_s")?;
    if !trace {
        let wall = f64_at(plain, "wall_s")?;
        r.set("particles_per_s", f64_at(plain, "served_particles")? / wall);
        r.set("wall_s", wall);
        if setup.is_empty() {
            return Err("no server start succeeded".into());
        }
        r.set_median("setup_s", &setup, 1.0);
        r.set("peak_rss_mb", f64_at(plain, "rss_mb")?);
        r.set("plans_per_s", latency.len() as f64 / wall);
        r.set_percentile("latency_p50_ms", &latency, 50.0, 1e3);
        r.set_percentile("latency_p99_ms", &latency, 99.0, 1e3);
        return Ok(r);
    }

    let traced = &loops[1];
    r.set_percentile(
        "serve.accept_p50_ms",
        &f64s_at(traced, "accept_s")?,
        50.0,
        1e3,
    );
    r.set_percentile("serve.hit_p50_ms", &f64s_at(traced, "hit_s")?, 50.0, 1e3);
    r.set_percentile("serve.cold_p50_ms", &f64s_at(traced, "cold_s")?, 50.0, 1e3);
    for (name, key) in [
        ("serve.cache_hits", "cache_hits"),
        ("serve.coalesced", "coalesced"),
        ("serve.cold_runs", "cold_runs"),
        ("serve.rejected", "rejected"),
        ("serve.xs_lookups", "xs_lookups"),
    ] {
        r.set(name, u64_at(traced, key)? as f64);
    }
    let saved = u64_at(traced, "cache_hits")? + u64_at(traced, "coalesced")?;
    r.set(
        "serve.saved_frac",
        saved as f64 / u64_at(traced, "submitted")?.max(1) as f64,
    );
    set_probes(&mut r, &[traced])?;
    let traced_latency = f64s_at(traced, "latency_s")?;
    r.set(
        "trace.overhead_frac",
        median(&traced_latency) / median(&latency) - 1.0,
    );
    r.notes.push(format!(
        "trace.overhead_frac: median traced latency of {} against untraced of {}",
        traced_latency.len(),
        latency.len()
    ));
    r.spans = traced.get("spans").into_iter().cloned().collect();
    Ok(r)
}

/// The result line for `metrics` (in declaration order, with units).
fn result_line(outcomes: Outcomes, metrics: &[(String, &str, f64)]) -> String {
    let m = metrics.iter().map(|(name, unit, value)| {
        assert!(valid_metric_name(name), "metric name {name:?}");
        (
            name.clone(),
            obj([
                ("value", json::num(*value)),
                ("unit", JsonValue::Str(unit.to_string())),
            ]),
        )
    });
    render(&obj([
        ("correct", JsonValue::Bool(outcomes.failed == 0)),
        ("attempted", json::count(outcomes.attempted)),
        ("failed", json::count(outcomes.failed)),
        ("metrics", obj(m)),
    ]))
}

fn print_summary(name: &str, r: &Report, metrics: &[(String, &str, f64)]) {
    eprintln!("== {name}");
    for (metric, unit, value) in metrics {
        eprintln!("  {metric:<26} {value:>16.6} {unit}");
    }
    eprintln!(
        "  failed_frac {:.6} ({} failed of {} attempted)",
        r.outcomes.failed_frac(),
        r.outcomes.failed,
        r.outcomes.attempted
    );
    for n in &r.notes {
        eprintln!("  note: {n}");
    }
}

fn write_trace(w: Workload, seed: u64, spans: Vec<JsonValue>) -> Result<String, String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("creating {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-seed{seed}.json", w.name());
    let doc = obj([
        ("workload", JsonValue::Str(w.name().into())),
        ("seed", json::count(seed)),
        ("processes", JsonValue::Array(spans)),
    ]);
    std::fs::write(&path, render(&doc) + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

fn run_workload(args: &Args) -> Result<(), String> {
    let w = Workload::parse(&args.workload)?;
    let mut r = match w {
        Workload::ServeMixed => serve_run(args.seed, args.trace)?,
        _ => transport_run(w, args.seed, args.seconds, args.trace)?,
    };
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        r.set("failed_frac", r.outcomes.failed_frac());
        // A layer this workload does not exercise did no work here.
        for (name, _) in PER_LAYER {
            r.metrics.entry(name).or_insert(0.0);
        }
    }
    let metrics: Vec<(String, &str, f64)> = listed
        .iter()
        .map(|&(name, unit)| {
            let value = r.metrics.get(name).copied();
            value
                .map(|v| (name.to_string(), unit, v))
                .ok_or_else(|| format!("{} did not measure {name}", w.name()))
        })
        .collect::<Result<_, _>>()?;
    print_summary(w.name(), &r, &metrics);
    if args.trace {
        let path = write_trace(w, args.seed, std::mem::take(&mut r.spans))?;
        eprintln!("  spans written to {path}");
    }
    println!("{}", result_line(r.outcomes, &metrics));
    Ok(())
}

/// `--workload all`: every workload in its own process, one after another.
fn run_all(args: &Args) -> Result<(), String> {
    let mut outcomes = Outcomes::default();
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let mut a: Vec<String> = vec!["--workload".into(), w.name().into()];
        a.extend(["--seed".into(), args.seed.to_string()]);
        a.extend(["--seconds".into(), args.seconds.to_string()]);
        a.extend(["--trace".into(), if args.trace { "1" } else { "0" }.into()]);
        let (rep, _) = run_child(&a)?;
        outcomes.attempted += u64_at(&rep, "attempted")?;
        outcomes.failed += u64_at(&rep, "failed")?;
        let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let m = rep.get("metrics").ok_or("result line without metrics")?;
        for &(name, unit) in listed {
            let v = m
                .get(name)
                .ok_or_else(|| format!("{} lacks {name}", w.name()))?;
            metrics.push((format!("{}.{name}", w.name()), unit, f64_at(v, "value")?));
        }
    }
    println!("{}", result_line(outcomes, &metrics));
    Ok(())
}

fn run_child_kind(kind: &str, args: &Args) -> Result<(), String> {
    let w = Workload::parse(&args.workload)?;
    let rep = match kind {
        "solve" if w != Workload::ServeMixed => transport::solve(w, args.seed, args.trace),
        "cross-check" if w != Workload::ServeMixed => transport::cross_check(w, args.seed),
        "reference" => {
            let b = match w {
                Workload::ServeMixed => serve::expected_digest(args.seed),
                _ => transport::reference_bits(w, args.seed),
            };
            obj([("bits", json::bits(b))])
        }
        "setup" if w == Workload::ServeMixed => serve::setup_child(args.seed),
        "setup" => transport::setup_child(w, args.seed),
        "serve-loop" => serve::loop_child(args.seed, args.trace),
        other => {
            return Err(format!(
                "unknown measurement kind {other:?} for {}",
                w.name()
            ))
        }
    };
    println!("{}", render(&rep));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match (&args.child, args.workload.as_str()) {
        (Some(kind), _) => run_child_kind(kind, &args),
        (None, "all") => run_all(&args),
        (None, _) => run_workload(&args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_metric_name_follows_the_charset_once() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        assert!(names.iter().all(|n| valid_metric_name(n)));
        for w in Workload::ALL {
            for (n, _) in END_TO_END.iter().chain(&PER_LAYER) {
                assert!(valid_metric_name(&format!("{}.{n}", w.name())));
            }
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_lists_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(&END_TO_END));
        assert_eq!(names("per_layer"), expect(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload smr-event --seed 4 --seconds 2.5 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!((a.seed, a.seconds, a.trace), (4, 2.5, true));
        for bad in [
            "--seed 1",
            "--workload x --trace 2",
            "--workload x --seconds 0",
            "--workload x --seed",
            "--workload x --bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys() {
        let mut o = Outcomes::default();
        o.record(true);
        let line = result_line(o, &[("wall_s".into(), "s", 1.25)]);
        let v = JsonValue::parse(&line).expect("valid JSON");
        let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(f64_at(wall, "value"), Ok(1.25));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcomes::default();
        o.record(true);
        o.record(false);
        let v = JsonValue::parse(&result_line(o, &[])).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(false)));
        assert_eq!(u64_at(&v, "failed"), Ok(1));
    }
}
