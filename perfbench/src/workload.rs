//! The four workloads, the inputs each derives from its seed, and the
//! stored k-effective references.

use mcs_core::engine::{Algorithm, ModelSpec, RunPlan};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HM-large core (320 fuel nuclides), event banking, `Serial`:
    /// cross-section bound, with an index far larger than the L3 cache.
    LargeEvent,
    /// ExaSMR-style 37-assembly core with a nested rodded centre, event
    /// banking, `Serial`: geometry heavy, cache-resident cross sections.
    SmrEvent,
    /// The `SmrEvent` plan and seed under the history algorithm: shares
    /// the kernels, bypasses the event pipeline.
    SmrHistory,
    /// Closed-loop `mcs serve` traffic: hot cached plans beside unique
    /// cold ones.
    ServeMixed,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::LargeEvent,
        Workload::SmrEvent,
        Workload::SmrHistory,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeEvent => "large-event",
            Workload::SmrEvent => "smr-event",
            Workload::SmrHistory => "smr-history",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {name:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// The transport plan this workload solves at `seed` (`None` for
    /// the serve workload, whose inputs are a plan sequence).
    pub fn plan(self, seed: u64) -> Option<RunPlan> {
        let (model, algorithm, particles) = match self {
            Workload::LargeEvent => ("large", Algorithm::EventBanking, LARGE_PARTICLES),
            Workload::SmrEvent => ("smr", Algorithm::EventBanking, SMR_PARTICLES),
            Workload::SmrHistory => ("smr", Algorithm::History, SMR_PARTICLES),
            Workload::ServeMixed => return None,
        };
        Some(RunPlan {
            model: ModelSpec::named(model),
            algorithm,
            particles,
            inactive: INACTIVE,
            active: ACTIVE,
            seed: Some(transport_seed(seed)),
            ..RunPlan::default()
        })
    }
}

/// Particles per batch on the HM-large core (~2.4k particles/s serial).
pub const LARGE_PARTICLES: usize = 1000;
/// Particles per batch on the SMR core (~11k particles/s serial).
pub const SMR_PARTICLES: usize = 4000;
/// Inactive batches of every transport plan.
pub const INACTIVE: usize = 2;
/// Active batches of every transport plan.
pub const ACTIVE: usize = 8;

/// SplitMix64: the one seed-expansion step every input derives from.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The master seed a transport plan runs under. The two SMR workloads
/// share it, so they must agree on k to the bit.
pub fn transport_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0x7472_616e_7370_6f72)
}

/// A small deterministic generator for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(salt)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in [0, 1).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Stored k-effective references: `(workload, seed, k_mean bits)`. The
/// SMR pair shares its entries (same plan, same seed, same k). For
/// `serve-mixed` the bits are a digest of every answered plan's k (see
/// [`crate::serve::answer_digest`]). A seed without an entry is checked
/// against the determinism contract alone.
/// Regenerate an entry with
/// `perfbench --child reference --workload <name> --seed <n> --trace 0`.
pub const REFERENCES: &[(&str, u64, u64)] = &[
    ("large-event", 0, 0x3fefebb87ad148a2),
    ("large-event", 1, 0x3fef7ea8bcaba3b4),
    ("large-event", 2, 0x3ff0ad28d050d47e),
    ("large-event", 3, 0x3ff06545a4859d07),
    ("large-event", 4, 0x3fefbc89169c15d2),
    ("large-event", 5, 0x3ff09b0206960cb8),
    ("large-event", 6, 0x3ff0224e4c7d1cee),
    ("large-event", 7, 0x3fef88116b400c85),
    ("large-event", 8, 0x3ff0693727be7f47),
    ("large-event", 9, 0x3ff085db0adad4d4),
    ("large-event", 10, 0x3feff228bba3ad69),
    ("large-event", 11, 0x3ff077d072f1dc64),
    ("large-event", 12, 0x3ff02d340a18dcbe),
    ("large-event", 13, 0x3fef7f1cd539a2d9),
    ("large-event", 14, 0x3ff016bb864faa10),
    ("large-event", 15, 0x3fefe0f6e8535305),
    ("large-event", 16, 0x3feea82a8320c97d),
    ("large-event", 17, 0x3ff0713d48c3a5eb),
    ("large-event", 18, 0x3ff04ac9e110a276),
    ("large-event", 19, 0x3ff01ea84f9eafc0),
    ("large-event", 20, 0x3fef842c55af81a4),
    ("smr-event", 0, 0x3ff26e40b2861924),
    ("smr-event", 1, 0x3ff23d3a56b2f11f),
    ("smr-event", 2, 0x3ff2966bf0755b6e),
    ("smr-event", 3, 0x3ff29e7d29b9f61f),
    ("smr-event", 4, 0x3ff2509a912063f7),
    ("smr-event", 5, 0x3ff24e11a87903a2),
    ("smr-event", 6, 0x3ff270c21c59ae8a),
    ("smr-event", 7, 0x3ff2a084cf78ca02),
    ("smr-event", 8, 0x3ff26fd11b83a456),
    ("smr-event", 9, 0x3ff28ddf3da11abd),
    ("smr-event", 10, 0x3ff2574ad05b45f7),
    ("smr-event", 11, 0x3ff245ebddc383ce),
    ("smr-event", 12, 0x3ff28884a38b1974),
    ("smr-event", 13, 0x3ff27799c2a05bd1),
    ("smr-event", 14, 0x3ff258b06f34d9f1),
    ("smr-event", 15, 0x3ff27aae3ce099c2),
    ("smr-event", 16, 0x3ff264f875c6476f),
    ("smr-event", 17, 0x3ff2a39993a3d941),
    ("smr-event", 18, 0x3ff2881984496e3d),
    ("smr-event", 19, 0x3ff25786f9d53962),
    ("smr-event", 20, 0x3ff28b36cfe0e48d),
    ("serve-mixed", 0, 0x2fb227caad7fca20),
    ("serve-mixed", 1, 0x85ecf83f7fecd91b),
    ("serve-mixed", 2, 0x0999480bce984e66),
    ("serve-mixed", 3, 0x61e35a1d6ac0604f),
    ("serve-mixed", 4, 0xbc486542ca237536),
    ("serve-mixed", 5, 0x184b1f105fc6d1fd),
    ("serve-mixed", 6, 0x47c968392b33d2be),
    ("serve-mixed", 7, 0x293d8974bca1f574),
    ("serve-mixed", 8, 0xd4573477fe29f31f),
    ("serve-mixed", 9, 0x520b465e40f0997c),
    ("serve-mixed", 10, 0x09560fee596025dc),
    ("serve-mixed", 11, 0x216b14a968cc265b),
    ("serve-mixed", 12, 0xd8a65b998d9905d9),
    ("serve-mixed", 13, 0xfec93ecebe1103ea),
    ("serve-mixed", 14, 0xf8512bc2dcb55c84),
    ("serve-mixed", 15, 0x4c1d1b72e109f360),
    ("serve-mixed", 16, 0xf7f303aa40f2552d),
    ("serve-mixed", 17, 0x3d4333e2a60997d9),
    ("serve-mixed", 18, 0x4643633a33724abe),
    ("serve-mixed", 19, 0xc8b0e06e69050474),
    ("serve-mixed", 20, 0x2615c8fc1baad4b9),
];

/// The stored reference for `workload` at `seed`, if one ships.
pub fn reference(workload: Workload, seed: u64) -> Option<u64> {
    let key = match workload {
        Workload::SmrHistory => Workload::SmrEvent.name(),
        w => w.name(),
    };
    REFERENCES
        .iter()
        .find(|(w, s, _)| *w == key && *s == seed)
        .map(|&(_, _, bits)| bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("huge-event").is_err());
    }

    #[test]
    fn smr_pair_differs_only_in_algorithm() {
        let mut ev = Workload::SmrEvent.plan(5).expect("transport plan");
        let hi = Workload::SmrHistory.plan(5).expect("transport plan");
        assert_ne!(ev.algorithm, hi.algorithm);
        ev.algorithm = hi.algorithm;
        assert_eq!(ev, hi);
        assert!(Workload::ServeMixed.plan(5).is_none());
    }

    #[test]
    fn seeds_change_the_plan_seed_only() {
        let a = Workload::LargeEvent.plan(1).expect("transport plan");
        let b = Workload::LargeEvent.plan(2).expect("transport plan");
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.seed, Workload::LargeEvent.plan(1).expect("plan").seed);
        assert_eq!(RunPlan { seed: None, ..a }, RunPlan { seed: None, ..b });
    }

    #[test]
    fn references_cover_the_first_seeds_of_every_workload() {
        for w in Workload::ALL {
            for seed in 0..=20 {
                assert!(reference(w, seed).is_some(), "{} seed {seed}", w.name());
            }
            assert!(reference(w, 1 << 40).is_none());
        }
        assert_eq!(
            reference(Workload::SmrHistory, 3),
            reference(Workload::SmrEvent, 3)
        );
    }

    #[test]
    fn rng_is_deterministic_and_salted() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3, 1), draw(3, 1));
        assert_ne!(draw(3, 1), draw(3, 2));
        assert_ne!(draw(3, 1), draw(4, 1));
        let mut r = Rng::new(9, 9);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.uniform())));
    }
}
