//! End-to-end subgraph estimation (§4) on dynamic streams, against exact
//! enumeration.

use graph_sketches::SubgraphSketch;
use gs_graph::subgraph::{gamma, triangle_count, Pattern};
use gs_graph::{gen, Graph};
use gs_sketch::LinearSketch;
use gs_stream::distributed::split_updates;

#[test]
fn triangle_gamma_tracks_truth_across_workloads() {
    let workloads: Vec<(&str, Graph)> = vec![
        ("gnp-sparse", gen::gnp(20, 0.15, 1)),
        ("gnp-dense", gen::gnp(20, 0.6, 2)),
        ("clustered", gen::planted_partition(20, 4, 0.9, 0.05, 3)),
    ];
    for (tag, g) in workloads {
        if g.m() == 0 {
            continue;
        }
        let exact = gamma(&g, &Pattern::triangle());
        // Median over 5 sketches (Theorem 4.1 is constant-probability).
        let mut errs: Vec<f64> = (0..5)
            .map(|seed| {
                let mut s = SubgraphSketch::new(g.n(), 3, 0.2, 1000 + seed);
                s.absorb(&gen::churn_stream(&g, 100, seed));
                (s.estimate_gamma(&Pattern::triangle()).expect("samples") - exact).abs()
            })
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            errs[2] <= 0.2,
            "{tag}: median additive error {} > 0.2",
            errs[2]
        );
    }
}

#[test]
fn deletion_heavy_stream_converges_to_final_graph() {
    // Build K_12, then delete down to a perfect matching: γ_triangle → 0.
    let full = gen::complete(12);
    let mut s = SubgraphSketch::new(12, 3, 0.25, 7);
    for &(u, v, _) in full.edges() {
        s.update_edge(u, v, 1);
    }
    for &(u, v, _) in full.edges() {
        if !(v == u + 1 && u % 2 == 0) {
            s.update_edge(u, v, -1);
        }
    }
    assert_eq!(
        s.estimate_gamma(&Pattern::triangle()).expect("samples"),
        0.0
    );
    // All samples must now be lone edges.
    assert_eq!(
        s.estimate_gamma(&Pattern::edge_plus_isolated())
            .expect("samples"),
        1.0
    );
}

#[test]
fn order4_estimation_end_to_end() {
    let g = gen::planted_partition(14, 2, 0.95, 0.1, 9);
    let exact_c4 = gamma(&g, &Pattern::c4());
    let exact_k4 = gamma(&g, &Pattern::k4());
    let mut s = SubgraphSketch::new(g.n(), 4, 0.25, 11);
    s.absorb(&gen::insert_stream(&g));
    let est_c4 = s.estimate_gamma(&Pattern::c4()).expect("samples");
    let est_k4 = s.estimate_gamma(&Pattern::k4()).expect("samples");
    assert!(
        (est_c4 - exact_c4).abs() <= 0.3,
        "C4 {est_c4} vs {exact_c4}"
    );
    assert!(
        (est_k4 - exact_k4).abs() <= 0.3,
        "K4 {est_k4} vs {exact_k4}"
    );
}

#[test]
fn triangle_count_reconstruction_buriol_style() {
    // §4 footnote: the additive-γ guarantee converts to a count estimate
    // via the (known) number of non-empty order-3 subgraphs.
    let g = gen::gnp(18, 0.5, 13);
    let exact_t3 = triangle_count(&g);
    let (_, non_empty) = gs_graph::subgraph::exact_counts(&g, &Pattern::triangle());
    let mut ests = Vec::new();
    for seed in 0..5 {
        let mut s = SubgraphSketch::new(g.n(), 3, 0.15, 2000 + seed);
        s.absorb(&gen::insert_stream(&g));
        let gam = s.estimate_gamma(&Pattern::triangle()).expect("samples");
        ests.push(gam * non_empty as f64);
    }
    ests.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = ests[ests.len() / 2];
    let rel = (median - exact_t3 as f64).abs() / exact_t3.max(1) as f64;
    assert!(rel <= 0.5, "T3 median {median} vs exact {exact_t3}");
}

#[test]
fn distributed_subgraph_sketches_merge() {
    use gs_sketch::Mergeable;
    let g = gen::gnp(14, 0.4, 15);
    let stream = gen::churn_stream(&g, 150, 17);
    let parts = split_updates(&stream, 4, 19);
    let mut acc: Option<SubgraphSketch> = None;
    for p in &parts {
        let mut s = SubgraphSketch::new(14, 3, 0.3, 42);
        s.absorb(p);
        match &mut acc {
            None => acc = Some(s),
            Some(a) => a.merge(&s),
        }
    }
    let mut central = SubgraphSketch::new(14, 3, 0.3, 42);
    central.absorb(&stream);
    assert_eq!(acc.unwrap().decode(), central.decode());
}
