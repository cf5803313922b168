//! Kernel probes for the traced run: time `Problem::find`,
//! `Problem::distance_to_boundary`, `Problem::macro_xs` and
//! `Problem::macro_xs_vector` (the paper's SIMD lookup) over a fixed
//! sample drawn from the workload seed.

use std::hint::black_box;
use std::time::Instant;

use mcs_core::Problem;
use mcs_geom::Vec3;
use mcs_rng::Lcg63;

use crate::json::{num, obj, JsonValue};
use crate::stats::median;
use crate::workload::Rng;

/// Points in the probe sample.
pub const SAMPLE: usize = 2048;
/// Timed passes over the sample per kernel; the median pass is reported.
pub const PASSES: usize = 7;

/// The probe inputs: positions uniform in the geometry's bounding box,
/// isotropic directions, energies log-uniform over the library range.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSample {
    /// Query positions.
    pub positions: Vec<Vec3>,
    /// Unit flight directions.
    pub directions: Vec<Vec3>,
    /// Neutron energies (MeV).
    pub energies: Vec<f64>,
}

impl ProbeSample {
    /// Draw `n` points for `seed` inside `bounds`, energies in `[e_lo, e_hi]`.
    pub fn draw(seed: u64, bounds: (Vec3, Vec3), (e_lo, e_hi): (f64, f64), n: usize) -> Self {
        let mut rng = Rng::new(seed, 0x7072_6f62);
        let (lo, hi) = bounds;
        let span = hi - lo;
        let (ln_lo, ln_hi) = (e_lo.ln(), e_hi.ln());
        let mut s = ProbeSample {
            positions: Vec::with_capacity(n),
            directions: Vec::with_capacity(n),
            energies: Vec::with_capacity(n),
        };
        for _ in 0..n {
            s.positions.push(Vec3::new(
                lo.x + span.x * rng.uniform(),
                lo.y + span.y * rng.uniform(),
                lo.z + span.z * rng.uniform(),
            ));
            s.directions
                .push(Vec3::isotropic(rng.uniform(), rng.uniform()));
            s.energies
                .push((ln_lo + (ln_hi - ln_lo) * rng.uniform()).exp());
        }
        s
    }
}

/// Median nanoseconds per call of each probed kernel.
#[derive(Debug, Clone, Copy)]
pub struct ProbeTimes {
    /// `Problem::find`.
    pub find_ns: f64,
    /// `Problem::distance_to_boundary`.
    pub distance_ns: f64,
    /// `Problem::macro_xs` (scalar).
    pub macro_ns: f64,
    /// `Problem::macro_xs_vector` (SIMD inner loop).
    pub macro_vector_ns: f64,
}

impl ProbeTimes {
    /// As a report object keyed by field name.
    pub fn to_json(self) -> JsonValue {
        obj([
            ("find_ns", num(self.find_ns)),
            ("distance_ns", num(self.distance_ns)),
            ("macro_ns", num(self.macro_ns)),
            ("macro_vector_ns", num(self.macro_vector_ns)),
        ])
    }
}

/// Per-call nanoseconds of `f` over `n` calls, median of [`PASSES`].
fn time_per_call(n: usize, mut pass: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&per_call)
}

/// Run the four probes against `problem`. The geometry and cross-section
/// counters of `problem` advance; snapshot them first.
pub fn run(problem: &Problem, seed: u64) -> ProbeTimes {
    let s = ProbeSample::draw(
        seed,
        problem.geometry.bounds,
        (mcs_xs::E_MIN, mcs_xs::E_MAX),
        SAMPLE,
    );
    // The material under each point (points outside every cell query
    // material 0) — an untimed pre-pass.
    let materials: Vec<u32> = s
        .positions
        .iter()
        .map(|&p| problem.find(p).map_or(0, |c| c.material))
        .collect();
    let find_ns = time_per_call(SAMPLE, || {
        for &p in &s.positions {
            black_box(problem.find(black_box(p)));
        }
    });
    let distance_ns = time_per_call(SAMPLE, || {
        for (&p, &d) in s.positions.iter().zip(&s.directions) {
            black_box(problem.distance_to_boundary(black_box(p), black_box(d)));
        }
    });
    let macro_ns = time_per_call(SAMPLE, || {
        let mut rng = Lcg63::new(seed);
        for (&m, &e) in materials.iter().zip(&s.energies) {
            black_box(problem.macro_xs(m, black_box(e), &mut rng));
        }
    });
    let macro_vector_ns = time_per_call(SAMPLE, || {
        let mut rng = Lcg63::new(seed);
        for (&m, &e) in materials.iter().zip(&s.energies) {
            black_box(problem.macro_xs_vector(m, black_box(e), &mut rng));
        }
    });
    ProbeTimes {
        find_ns,
        distance_ns,
        macro_ns,
        macro_vector_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> (Vec3, Vec3) {
        (Vec3::new(-2.0, -1.0, -5.0), Vec3::new(2.0, 1.0, 5.0))
    }

    #[test]
    fn same_seed_same_sample() {
        let a = ProbeSample::draw(11, bounds(), (1e-11, 20.0), 256);
        assert_eq!(a, ProbeSample::draw(11, bounds(), (1e-11, 20.0), 256));
        assert_ne!(a, ProbeSample::draw(12, bounds(), (1e-11, 20.0), 256));
    }

    #[test]
    fn sample_stays_in_its_domain() {
        let (lo, hi) = bounds();
        let s = ProbeSample::draw(3, (lo, hi), (1e-11, 20.0), 1000);
        for p in &s.positions {
            assert!(p.x >= lo.x && p.x < hi.x && p.y >= lo.y && p.y < hi.y);
            assert!(p.z >= lo.z && p.z < hi.z);
        }
        for d in &s.directions {
            assert!((d.dot(*d) - 1.0).abs() < 1e-12);
        }
        assert!(s.energies.iter().all(|&e| (1e-11..=20.0).contains(&e)));
        // Log-uniform: about half the points fall below the log midpoint.
        let mid = (1e-11f64.ln() + 20f64.ln()) / 2.0;
        let below = s.energies.iter().filter(|e| e.ln() < mid).count();
        assert!((400..600).contains(&below), "{below}");
    }
}
