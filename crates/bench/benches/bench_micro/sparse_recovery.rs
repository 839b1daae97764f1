//! E2 performance companion: `k-RECOVERY` (Theorem 2.2).

use crate::Rows;
use gs_field::SplitMix64;
use gs_sketch::{Mergeable, SparseRecovery};

pub(crate) fn run(rows: &mut Rows) {
    for k in [8usize, 64, 512] {
        let mut s = SparseRecovery::new(1 << 30, k, 1);
        let mut rng = SplitMix64::new(2);
        rows.time(format!("sparse_recovery_update/{k}"), || {
            s.update(rng.next_range(1 << 30), 1)
        });
    }

    for k in [8usize, 64, 512] {
        let mut s = SparseRecovery::new(1 << 30, k, 3);
        let mut rng = SplitMix64::new(4);
        for _ in 0..k {
            s.update(rng.next_range(1 << 30), 1 + rng.next_range(9) as i64);
        }
        rows.time(format!("sparse_recovery_decode/{k}"), || {
            s.decode().expect("k-sparse input decodes")
        });
    }

    // The Fig. 3 hot path: summing per-node recoveries over a cut side.
    for k in [64usize, 512] {
        let a = SparseRecovery::new(1 << 30, k, 5);
        let other = a.clone();
        let mut acc = a.clone();
        rows.time(format!("sparse_recovery_merge/{k}"), || acc.merge(&other));
    }
}
