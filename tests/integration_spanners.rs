//! End-to-end spanner construction (§5): pass counts, stretch bounds, and
//! size scaling on dynamic streams.

use graph_sketches::spanner::recurse::stretch_bound;
use graph_sketches::spanner::{
    baswana_sen, recurse_connect, BaswanaSenParams, Meter, RecurseParams,
};
use gs_graph::paths::max_stretch;
use gs_graph::{gen, Graph};
use gs_sketch::EdgeUpdate;

#[test]
fn baswana_sen_respects_definition_2_adaptivity() {
    // A k-adaptive scheme = k batches of measurements = k passes; no more.
    let g = gen::connected_gnp(36, 0.2, 1);
    let stream = gen::churn_stream(&g, 200, 3);
    for k in 1..=5 {
        let mut meter = Meter::new(g.n(), &stream);
        let h = baswana_sen(&mut meter, BaswanaSenParams::scaled(36, k), 5);
        assert_eq!(meter.passes(), k);
        let s = max_stretch(&g, &h).expect("spans");
        assert!(
            s <= (2 * k - 1) as f64,
            "k={k}: stretch {s} > {}",
            2 * k - 1
        );
    }
}

#[test]
fn recurse_connect_uses_fewer_passes_than_baswana_sen() {
    let g = gen::connected_gnp(60, 0.15, 7);
    let stream = gen::insert_stream(&g);
    let k = 4;
    let mut m_bs = Meter::new(g.n(), &stream);
    let _ = baswana_sen(&mut m_bs, BaswanaSenParams::scaled(60, k), 9);
    let mut m_rc = Meter::new(g.n(), &stream);
    let (h, _) = recurse_connect(&mut m_rc, RecurseParams::scaled(k), 11);
    assert!(
        m_rc.passes() < m_bs.passes(),
        "RC {} vs BS {}",
        m_rc.passes(),
        m_bs.passes()
    );
    let s = max_stretch(&g, &h).expect("spans");
    assert!(s <= stretch_bound(k), "stretch {s}");
}

#[test]
fn spanner_on_high_diameter_graph() {
    // Grids are the adversarial case for cluster-growing spanners.
    let g = gen::grid(7, 9);
    let stream = gen::insert_stream(&g);
    let mut meter = Meter::new(g.n(), &stream);
    let h = baswana_sen(&mut meter, BaswanaSenParams::scaled(g.n(), 3), 13);
    let s = max_stretch(&g, &h).expect("spans");
    assert!(s <= 5.0, "grid stretch {s}");
}

#[test]
fn spanner_survives_adversarial_churn() {
    // Insert a dense decoy layer, delete it, leave a sparse graph: the
    // sketches must not be confused by the transient density.
    let keep = gen::connected_gnp(30, 0.12, 15);
    let decoy = gen::gnp(30, 0.5, 17);
    let mut updates = Vec::new();
    for &(u, v, w) in keep.edges() {
        for _ in 0..w {
            updates.push(EdgeUpdate::insert(u, v));
        }
    }
    for &(u, v, _) in decoy.edges() {
        if !keep.has_edge(u, v) {
            updates.push(EdgeUpdate::insert(u, v));
        }
    }
    for &(u, v, _) in decoy.edges() {
        if !keep.has_edge(u, v) {
            updates.push(EdgeUpdate::delete(u, v));
        }
    }
    let stream = Graph::from_unit_updates(30, &updates).expect("a valid dynamic stream");
    assert_eq!(stream.edges(), keep.edges());
    let mut meter = Meter::new(30, &updates);
    let h = baswana_sen(&mut meter, BaswanaSenParams::scaled(30, 2), 19);
    for &(u, v, _) in h.edges() {
        assert!(keep.has_edge(u, v), "spanner kept deleted edge ({u},{v})");
    }
    let s = max_stretch(&keep, &h).expect("spans");
    assert!(s <= 3.0, "churn stretch {s}");
}

#[test]
fn size_grows_as_stretch_shrinks() {
    // The n^{1+1/k} trade-off: smaller k (stronger stretch) ⇒ more edges.
    let g = gen::complete(60);
    let stream = gen::insert_stream(&g);
    let sizes: Vec<usize> = [2usize, 5]
        .iter()
        .map(|&k| {
            let mut meter = Meter::new(g.n(), &stream);
            baswana_sen(&mut meter, BaswanaSenParams::scaled(60, k), 21).m()
        })
        .collect();
    assert!(
        sizes[0] >= sizes[1],
        "k=2 gave {} edges < k=5's {}",
        sizes[0],
        sizes[1]
    );
}

#[test]
fn recurse_trace_respects_contraction_invariant() {
    // |G̃_i| ≤ n^{1−(2^i−1)/k} (step 1 of §5.1), with slack for our
    // low-degree retirements which only shrink the graph further.
    let g: Graph = gen::connected_gnp(80, 0.3, 23);
    let stream = gen::insert_stream(&g);
    let mut meter = Meter::new(g.n(), &stream);
    let k = 4;
    let (_, trace) = recurse_connect(&mut meter, RecurseParams::scaled(k), 25);
    let n = 80f64;
    for p in &trace.phases {
        let bound = n
            .powf(1.0 - ((1u64 << (p.phase + 1)) - 1) as f64 / k as f64)
            .ceil();
        assert!(
            (p.members.len() as f64) <= bound + 1.0,
            "phase {}: {} supervertices > bound {bound}",
            p.phase,
            p.members.len()
        );
    }
}
