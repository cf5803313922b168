//! The `serve-mixed` workload: a closed loop of callers against an
//! in-process `mcs_serve::Server` on a loopback ephemeral port.
//!
//! Each connection is one caller that waits for its `Result` before
//! submitting again (as `Client::run` does). About 80 % of requests pick
//! from a small hot set of `test`-model plans (cache reads, plus in-flight
//! coalescing while a hot plan is still cold); about 20 % are unique cold
//! plans (an engine run and a cache insert). All plans share one problem
//! key, so cold runs pay no problem build.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mcs_core::engine::{self, Algorithm, ModelSpec, RunPlan, Serial};
use mcs_serve::{plan_hash, Client, Priority, Response, ServeConfig, ServedResult, Server, Source};

use crate::json::{bits, count, num, nums, obj, JsonValue};
use crate::probes;
use crate::stats::Outcomes;
use crate::trace::{spans_json, Span, SpanId, Tracer};
use crate::workload::{splitmix64, Rng};

/// Concurrent callers.
pub const CONNECTIONS: usize = 2;
/// Requests per loop: enough that p99 has ten samples beyond it.
pub const REQUESTS: usize = 1000;
/// Distinct hot plans.
pub const HOT_PLANS: usize = 8;
/// Share of requests drawn from the hot set.
pub const HOT_SHARE: f64 = 0.8;
/// Hot and cold plans replayed in-process after the loop.
pub const REPLAYS: usize = 2;

/// One request of a caller's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Hot-set plan index.
    Hot(usize),
    /// Unique cold plan number (distinct across all connections).
    Cold(usize),
}

fn serve_plan_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0x7365_7276_652d_6d78)
}

fn test_plan(seed: u64, algorithm: Algorithm, particles: usize, active: usize) -> RunPlan {
    RunPlan {
        model: ModelSpec::test(),
        algorithm,
        particles,
        inactive: 1,
        active,
        seed: Some(serve_plan_seed(seed)),
        ..RunPlan::default()
    }
}

/// Event banking for even `i`, history for odd.
fn alternate(i: usize) -> Algorithm {
    if i.is_multiple_of(2) {
        Algorithm::EventBanking
    } else {
        Algorithm::History
    }
}

/// The hot set for `seed`: small `test`-model plans, half of them event.
/// Sizes are fixed so that a seed changes which plans are asked, not how
/// much work the loop holds.
pub fn hot_plans(seed: u64) -> Vec<RunPlan> {
    (0..HOT_PLANS)
        .map(|i| test_plan(seed, alternate(i), 100 + 12 * i, 2))
        .collect()
}

/// Cold plan number `n`: unique through its entropy mesh and particle
/// count, equal in cost to its neighbours.
pub fn cold_plan(seed: u64, n: usize) -> RunPlan {
    RunPlan {
        entropy_mesh: (8, 8, 4 + n / 100),
        ..test_plan(seed, alternate(n), 100 + n % 100, 1)
    }
}

/// The request sequence caller `conn` sends at `seed`.
pub fn sequence(seed: u64, conn: usize, len: usize) -> Vec<Pick> {
    let mut rng = Rng::new(seed, 0x7365_7100 + conn as u64);
    (0..len)
        .map(|k| {
            if rng.uniform() < HOT_SHARE {
                Pick::Hot(rng.below(HOT_PLANS as u64) as usize)
            } else {
                Pick::Cold(k * CONNECTIONS + conn)
            }
        })
        .collect()
}

fn plan_for(seed: u64, hot: &[RunPlan], pick: Pick) -> RunPlan {
    match pick {
        Pick::Hot(i) => hot[i].clone(),
        Pick::Cold(n) => cold_plan(seed, n),
    }
}

/// FNV-1a over the sorted `(plan hash, k_mean bits)` of every answered
/// plan: the serve workload's k reference.
pub fn answer_digest(answers: &BTreeMap<u64, Arc<ServedResult>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (hash, r) in answers {
        for b in hash
            .to_le_bytes()
            .into_iter()
            .chain(r.k_mean_bits.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The digest a correct loop at `seed` answers with, computed in-process
/// by running every distinct plan of the caller sequences once.
pub fn expected_digest(seed: u64) -> u64 {
    let hot = hot_plans(seed);
    let mut answers = BTreeMap::new();
    for conn in 0..CONNECTIONS {
        for pick in sequence(seed, conn, REQUESTS / CONNECTIONS) {
            let plan = plan_for(seed, &hot, pick);
            let hash = plan_hash(&plan);
            answers.entry(hash).or_insert_with(|| {
                let report = engine::run(&plan, &mut Serial::new()).into_eigenvalue();
                Arc::new(ServedResult::from_report(hash, &report))
            });
        }
    }
    answer_digest(&answers)
}

/// One answered (or failed) request.
struct Sample {
    pick: Pick,
    plan: RunPlan,
    accept_s: f64,
    latency_s: f64,
    accepted: Option<Source>,
    result: Option<Arc<ServedResult>>,
}

/// Submit `plan` and wait for its terminal event, stamping `Accepted`.
/// Spans: submit→`Accepted` and `Accepted`→terminal, under `root`.
fn request(
    client: &mut Client,
    plan: &RunPlan,
    tracer: &mut Tracer,
    root: SpanId,
    req: u64,
) -> (f64, f64, Option<Source>, Option<Arc<ServedResult>>) {
    let t0 = Instant::now();
    let mut leg = tracer.begin("serve.submit_to_accepted", Some(root), Some(req));
    let mut accept_s = f64::NAN;
    let mut accepted = None;
    let mut result = None;
    match client.submit(plan, Priority::Normal, false) {
        Err(e) => eprintln!("serve: submit failed: {e}"),
        Ok(id) => loop {
            match client.next_event() {
                Ok(Response::Accepted { id: i, source, .. }) if i == id => {
                    accept_s = t0.elapsed().as_secs_f64();
                    accepted = Some(source);
                    tracer.end(leg);
                    leg = tracer.begin("serve.accepted_to_result", Some(root), Some(req));
                }
                Ok(Response::Result {
                    id: i, result: r, ..
                }) if i == id => {
                    result = Some(r);
                    break;
                }
                Ok(Response::Rejected { id: i, reason }) if i == id => {
                    eprintln!("serve: request rejected: {reason}");
                    break;
                }
                Ok(Response::Error { detail }) => {
                    eprintln!("serve: error frame: {detail}");
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    eprintln!("serve: connection failed: {e}");
                    break;
                }
            }
        },
    }
    let latency_s = t0.elapsed().as_secs_f64();
    tracer.end(leg);
    (accept_s, latency_s, accepted, result)
}

/// One caller's closed loop.
fn caller(
    addr: std::net::SocketAddr,
    seed: u64,
    conn: usize,
    mut tracer: Tracer,
) -> (Vec<Sample>, Vec<Span>) {
    let hot = hot_plans(seed);
    let picks = sequence(seed, conn, REQUESTS / CONNECTIONS);
    let mut client = Client::connect(addr).expect("connect to the loopback server");
    let mut samples = Vec::with_capacity(picks.len());
    for (k, pick) in picks.into_iter().enumerate() {
        let plan = plan_for(seed, &hot, pick);
        let req = ((conn as u64) << 32) | k as u64;
        let root = tracer.begin("serve.request", None, Some(req));
        let (accept_s, latency_s, accepted, result) =
            request(&mut client, &plan, &mut tracer, root, req);
        tracer.end(root);
        samples.push(Sample {
            pick,
            plan,
            accept_s,
            latency_s,
            accepted,
            result,
        });
    }
    (samples, tracer.into_spans())
}

/// Start a server and wait for its first answer: serve's setup time.
fn start(seed: u64) -> (Server, f64, Option<Arc<ServedResult>>, RunPlan) {
    let t0 = Instant::now();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind a loopback port");
    let plan = hot_plans(seed).swap_remove(0);
    let mut client = Client::connect(server.local_addr()).expect("connect to the loopback server");
    let first = client.run(&plan, Priority::Normal).ok().map(|(_, r)| r);
    (server, t0.elapsed().as_secs_f64(), first, plan)
}

fn answer_ok(plan: &RunPlan, result: &Option<Arc<ServedResult>>) -> bool {
    result
        .as_ref()
        .is_some_and(|r| r.plan_hash == plan_hash(plan))
}

/// Measurement process: server start → first answered plan.
pub fn setup_child(seed: u64) -> JsonValue {
    let (server, setup_s, first, plan) = start(seed);
    server.shutdown();
    obj([
        ("setup_s", num(setup_s)),
        ("ok", JsonValue::Bool(answer_ok(&plan, &first))),
    ])
}

/// Measurement process: one closed loop of [`REQUESTS`] requests.
pub fn loop_child(seed: u64, trace: bool) -> JsonValue {
    let (server, _, first, first_plan) = start(seed);
    let mut outcomes = Outcomes::default();
    outcomes.record(answer_ok(&first_plan, &first));
    let addr = server.local_addr();
    let t0 = Instant::now();
    let per_conn: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let tracer = Tracer::with_origin(trace, t0, (conn as u64 + 1) << 40);
                s.spawn(move || caller(addr, seed, conn, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = Client::connect(addr)
        .and_then(|mut c| c.stats().map_err(|e| std::io::Error::other(e.to_string())))
        .expect("stats from the loopback server");
    server.shutdown();

    let mut spans = Vec::new();
    let mut samples = Vec::new();
    for (s, sp) in per_conn {
        samples.extend(s);
        spans.extend(sp);
    }

    // Payload checks: every answer is for the plan asked, and every
    // answer for one plan hash is bitwise the first (cold) one.
    let mut answers: BTreeMap<u64, Arc<ServedResult>> = BTreeMap::new();
    if let Some(r) = &first {
        answers.insert(r.plan_hash, r.clone());
    }
    for s in &samples {
        let mut ok = answer_ok(&s.plan, &s.result);
        if let (true, Some(r)) = (ok, &s.result) {
            let cold = answers.entry(r.plan_hash).or_insert_with(|| r.clone());
            ok = **cold == **r;
        }
        outcomes.record(ok);
    }

    // Replays: sampled answers against an in-process engine run.
    let mut rng = Rng::new(seed, 0x7265_706c);
    let hot: Vec<&Sample> = samples
        .iter()
        .filter(|s| matches!(s.pick, Pick::Hot(_)))
        .collect();
    let cold: Vec<&Sample> = samples
        .iter()
        .filter(|s| matches!(s.pick, Pick::Cold(_)))
        .collect();
    let mut replayed = Vec::new();
    for pool in [&hot, &cold] {
        for _ in 0..REPLAYS.min(pool.len()) {
            replayed.push(pool[rng.below(pool.len() as u64) as usize]);
        }
    }
    for s in replayed {
        let Some(served) = &s.result else { continue };
        let report = engine::run(&s.plan, &mut Serial::new()).into_eigenvalue();
        if ServedResult::from_report(plan_hash(&s.plan), &report) != **served {
            eprintln!(
                "serve: replay of {:016x} differs from the served answer",
                served.plan_hash
            );
            outcomes.fail_counted();
        }
    }

    let ok_samples: Vec<&Sample> = samples.iter().filter(|s| s.result.is_some()).collect();
    let latency: Vec<f64> = ok_samples.iter().map(|s| s.latency_s).collect();
    let of_source = |src: Source| -> Vec<f64> {
        ok_samples
            .iter()
            .filter(|s| s.accepted == Some(src))
            .map(|s| s.latency_s)
            .collect()
    };
    let served_particles: u64 = ok_samples
        .iter()
        .map(|s| (s.plan.particles * s.plan.total_batches()) as u64)
        .sum();
    let mut fields = vec![
        ("wall_s", num(wall_s)),
        ("latency_s", nums(&latency)),
        (
            "accept_s",
            nums(&ok_samples.iter().map(|s| s.accept_s).collect::<Vec<_>>()),
        ),
        ("hit_s", nums(&of_source(Source::Cache))),
        ("cold_s", nums(&of_source(Source::Scheduled))),
        ("served_particles", count(served_particles)),
        ("attempted", count(outcomes.attempted)),
        ("failed", count(outcomes.failed)),
        ("digest", bits(answer_digest(&answers))),
        ("submitted", count(stats.submitted)),
        ("cache_hits", count(stats.cache_hits)),
        ("coalesced", count(stats.coalesced)),
        ("cold_runs", count(stats.cold_runs)),
        ("rejected", count(stats.rejected)),
        ("xs_lookups", count(stats.xs_lookups)),
        ("rss_mb", num(crate::peak_rss_mb())),
        ("spans", spans_json(&spans)),
    ];
    if trace {
        // Kernel probes on the problem every served plan shares.
        let p = probes::run(&first_plan.build_problem(), seed);
        fields.push(("probes", p.to_json()));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_sequence() {
        for conn in 0..CONNECTIONS {
            assert_eq!(sequence(7, conn, 500), sequence(7, conn, 500));
        }
        assert_ne!(sequence(7, 0, 500), sequence(8, 0, 500));
        assert_ne!(sequence(7, 0, 500), sequence(7, 1, 500));
        assert_eq!(hot_plans(7), hot_plans(7));
        assert_eq!(cold_plan(7, 42), cold_plan(7, 42));
    }

    #[test]
    fn mix_is_about_four_hot_to_one_cold() {
        let picks = sequence(3, 0, 5000);
        let hot = picks.iter().filter(|p| matches!(p, Pick::Hot(_))).count();
        assert!((3800..4200).contains(&hot), "{hot}");
    }

    #[test]
    fn cold_plans_are_unique_and_hot_plans_distinct() {
        let mut hashes: Vec<u64> = (0..REQUESTS).map(|n| plan_hash(&cold_plan(1, n))).collect();
        hashes.extend(hot_plans(1).iter().map(plan_hash));
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n);
    }

    #[test]
    fn cold_numbers_never_collide_across_connections() {
        let mut cold: Vec<usize> = (0..CONNECTIONS)
            .flat_map(|c| sequence(5, c, 500))
            .filter_map(|p| match p {
                Pick::Cold(n) => Some(n),
                Pick::Hot(_) => None,
            })
            .collect();
        let n = cold.len();
        cold.sort_unstable();
        cold.dedup();
        assert_eq!(cold.len(), n);
    }
}
