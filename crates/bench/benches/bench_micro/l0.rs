//! E1 performance companion: ℓ0 structures (Theorem 2.1).
//!
//! Measures update and query throughput of the uniform sampler and the
//! cheap detector across domain sizes — the inner loop of every graph
//! sketch in the workspace.

use crate::Rows;
use gs_field::SplitMix64;
use gs_sketch::{L0Detector, L0Sampler};

pub(crate) fn run(rows: &mut Rows) {
    for bits in [12u32, 20, 32] {
        let domain = 1u64 << bits;
        let mut s = L0Sampler::new(domain, 1);
        let mut rng = SplitMix64::new(2);
        rows.time(format!("l0_update/sampler/{bits}"), || {
            s.update(rng.next_range(domain), 1)
        });
        let mut s = L0Detector::new(domain, 1);
        let mut rng = SplitMix64::new(2);
        rows.time(format!("l0_update/detector/{bits}"), || {
            s.update(rng.next_range(domain), 1)
        });
    }

    for support in [16u64, 1024] {
        let domain = 1u64 << 20;
        let mut sampler = L0Sampler::new(domain, 3);
        let mut detector = L0Detector::new(domain, 3);
        let mut rng = SplitMix64::new(4);
        for _ in 0..support {
            let i = rng.next_range(domain);
            sampler.update(i, 1);
            detector.update(i, 1);
        }
        rows.time(format!("l0_query/sampler/{support}"), || sampler.query());
        rows.time(format!("l0_query/detector/{support}"), || detector.query());
    }
}
