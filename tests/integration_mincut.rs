//! End-to-end MINCUT (Fig. 1) and weighted sparsification (§3.5) on
//! dynamic streams.

use graph_sketches::weighted::WeightedSparsifySketch;
use graph_sketches::MinCutSketch;
use gs_graph::cuts::random_cut_audit;
use gs_graph::{gen, stoer_wagner, Graph};
use gs_sketch::LinearSketch;

#[test]
fn mincut_exact_on_planted_cuts_under_churn() {
    for bridge in [1usize, 2, 4] {
        let g = gen::barbell(8, bridge);
        let mut s = MinCutSketch::new(g.n(), 0.5, bridge as u64);
        s.absorb(&gen::churn_stream(&g, 400, 99));
        let est = s.decode().expect("resolves");
        assert_eq!(est.value, bridge as u64, "bridge = {bridge}");
        assert_eq!(g.cut_value(&est.side), bridge as u64, "witness side");
    }
}

#[test]
fn mincut_tracks_graph_evolution() {
    // Start with a 3-bridge barbell, delete two bridges: λ drops 3 → 1.
    let g = gen::barbell(7, 3);
    let mut s = MinCutSketch::new(g.n(), 0.5, 5);
    s.absorb(&gen::insert_stream(&g));
    assert_eq!(s.decode().expect("resolves").value, 3);
    s.update_edge(1, 8, -1);
    s.update_edge(2, 9, -1);
    assert_eq!(s.decode().expect("resolves").value, 1);
    // Delete the last bridge: disconnected, λ = 0.
    s.update_edge(0, 7, -1);
    assert_eq!(s.decode().expect("resolves").value, 0);
}

#[test]
fn mincut_median_estimate_on_dense_graph() {
    // K_30 (λ = 29 > k): needs the subsampled levels; the median over
    // seeds should land within a (1 ± ε̃) band of the truth.
    let g = gen::complete(30);
    let mut vals = Vec::new();
    for seed in 0..9 {
        let mut s = MinCutSketch::new(g.n(), 0.5, 1000 + seed);
        s.absorb(&gen::insert_stream(&g));
        vals.push(s.decode().expect("resolves").value as f64);
    }
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = vals[vals.len() / 2];
    let ratio = median / stoer_wagner::min_cut_value(&g) as f64;
    assert!(
        (0.5..=1.7).contains(&ratio),
        "median ratio {ratio} (values {vals:?})"
    );
}

#[test]
fn weighted_sparsifier_on_streamed_weighted_graph() {
    let g = gen::gnp_weighted(24, 0.5, 16, 3);
    let eps = 0.75;
    let mut s = WeightedSparsifySketch::new(g.n(), eps, 16, 7);
    // Stream weighted edges with interleaved decoys.
    let mut decoys = Vec::new();
    for (i, &(u, v, w)) in g.edges().iter().enumerate() {
        s.update_edge(u, v, w as i64);
        if i % 3 == 0 {
            let (du, dv, dw) = ((u + 1) % g.n(), (v + 3) % g.n(), (w % 7) + 1);
            if du != dv {
                s.update_edge(du, dv, dw as i64);
                decoys.push((du, dv, dw));
            }
        }
    }
    for (du, dv, dw) in decoys {
        s.update_edge(du, dv, -(dw as i64));
    }
    let h = s.decode();
    let err = random_cut_audit(&g, &h, 300, 9);
    assert!(err <= eps, "weighted streamed error {err}");
}

#[test]
fn weighted_classes_cover_wide_weight_ranges() {
    // Weights spanning 1..=1000 (10 classes) on a sparse structure come
    // back exactly.
    let g = Graph::from_weighted_edges(
        8,
        [
            (0, 1, 1),
            (1, 2, 9),
            (2, 3, 90),
            (3, 4, 900),
            (4, 5, 17),
            (5, 6, 3),
            (6, 7, 1000),
        ],
    );
    let mut s = WeightedSparsifySketch::new(8, 0.5, 1000, 11);
    for &(u, v, w) in g.edges() {
        s.update_edge(u, v, w as i64);
    }
    assert_eq!(s.decode().edges(), g.edges());
}
