//! Ablation benches for the design choices called out in DESIGN.md §4:
//!
//! * fresh-per-round vs shared detector banks in Boruvka decoding
//!   (DESIGN §4.3 / the `share_rounds` knob) — success rate is measured in
//!   the unit tests; here we measure the memory/time trade.
//! * oracle vs Nisan randomness backends — per-hash cost (§3.4's price).
//! * detector vs uniform sampler in the forest roles (DESIGN §4.3).

use crate::Rows;
use graph_sketches::connectivity::{ForestParams, ForestSketch};
use gs_field::{BackendKind, HashBackend, Randomness};
use gs_graph::gen;
use gs_sketch::{L0Detector, L0Sampler, LinearSketch};

pub(crate) fn run(rows: &mut Rows) {
    let n = 64;
    let g = gen::connected_gnp(n, 0.15, 1);
    for share in [false, true] {
        let mut params = ForestParams::for_n(n);
        params.share_rounds = share;
        let name = if share { "shared_bank" } else { "fresh_banks" };
        rows.time(format!("ablation_share_rounds/{name}"), || {
            let mut s = ForestSketch::with_params(n, params, 3);
            for &(u, v, w) in g.edges() {
                s.update_edge(u, v, w as i64);
            }
            s.decode()
        });
    }

    for (name, kind) in [
        ("oracle", BackendKind::Oracle),
        ("nisan", BackendKind::Nisan),
    ] {
        let h: HashBackend = kind.backend(1, 2);
        let mut x = 0u64;
        rows.time(format!("ablation_hash_backend/{name}"), || {
            x = x.wrapping_add(1);
            h.hash64(x)
        });
    }

    let domain = 1u64 << 20;
    let mut d = L0Detector::new(domain, 1);
    let mut x = 0u64;
    rows.time("ablation_l0_flavor/detector_update".into(), || {
        x = (x + 7919) % domain;
        d.update(x, 1)
    });
    let mut s = L0Sampler::new(domain, 1);
    let mut x = 0u64;
    rows.time("ablation_l0_flavor/sampler_update".into(), || {
        x = (x + 7919) % domain;
        s.update(x, 1)
    });
}
