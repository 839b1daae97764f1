//! End-to-end sparsification (§3): dynamic stream in, audited sparsifier
//! out, across algorithms (Fig. 2 vs Fig. 3 vs offline baselines) and
//! workloads.

use graph_sketches::{SimpleSparsifySketch, SparsifySketch};
use gs_graph::cuts::{cut_family_audit, random_cut_audit};
use gs_graph::{gen, offline_sparsify, GomoryHuTree, Graph};
use gs_sketch::{CellBanked, LinearSketch};

fn run_simple(g: &Graph, eps: f64, seed: u64, churn: usize) -> Graph {
    let mut s = SimpleSparsifySketch::new(g.n(), eps, seed);
    s.absorb(&gen::churn_stream(g, churn, seed ^ 0x11));
    s.decode()
}

fn run_better(g: &Graph, eps: f64, seed: u64, churn: usize) -> Graph {
    let mut s = SparsifySketch::new(g.n(), eps, seed);
    s.absorb(&gen::churn_stream(g, churn, seed ^ 0x22));
    s.decode()
}

#[test]
fn both_sparsifiers_pass_random_cut_audit_on_gnp() {
    let g = gen::gnp(40, 0.35, 1);
    let eps = 0.75;
    for (h, tag) in [
        (run_simple(&g, eps, 2, 300), "fig2"),
        (run_better(&g, eps, 3, 300), "fig3"),
    ] {
        let err = random_cut_audit(&g, &h, 400, 5);
        assert!(err <= eps, "{tag}: error {err} > ε");
    }
}

#[test]
fn gomory_hu_cuts_of_input_preserved() {
    // Audit the minimum u-v cut family itself (the hard family).
    let g = gen::planted_partition(26, 2, 0.8, 0.08, 7);
    let eps = 0.75;
    let tree = GomoryHuTree::build(&g);
    for (h, tag) in [
        (run_simple(&g, eps, 9, 200), "fig2"),
        (run_better(&g, eps, 11, 200), "fig3"),
    ] {
        let cuts: Vec<Vec<bool>> = tree.induced_cuts().map(|(_, _, s)| s).collect();
        let err = cut_family_audit(&g, &h, cuts);
        assert!(err <= eps, "{tag}: GH-family error {err}");
    }
}

#[test]
fn sketch_sparsifiers_behave_like_offline_baselines() {
    // On a dense graph, the single-pass sparsifiers and the offline
    // Fung et al. baseline should all stay within their ε budget.
    let g = gen::complete(36);
    let eps = 0.75;
    let sketch = run_better(&g, eps, 13, 100);
    let offline = offline_sparsify::fung_connectivity(&g, eps, 1.0, 15);
    let e_sketch = random_cut_audit(&g, &sketch, 300, 17);
    let e_off = random_cut_audit(&offline_sparsify::scaled_reference(&g), &offline, 300, 17);
    assert!(e_sketch <= eps, "sketch error {e_sketch}");
    assert!(e_off <= eps, "offline error {e_off}");
}

#[test]
fn heavy_churn_does_not_change_the_output() {
    // 10× decoy churn must produce the identical sparsifier (linearity).
    let g = gen::gnp(24, 0.4, 19);
    let a = run_better(&g, 0.5, 21, 0);
    let b = {
        let mut s = SparsifySketch::new(g.n(), 0.5, 21);
        s.absorb(&gen::churn_stream(&g, 10 * g.m(), 23));
        s.decode()
    };
    assert_eq!(a.edges(), b.edges());
}

#[test]
fn disconnected_input_stays_disconnected() {
    let mut edges = Vec::new();
    for u in 0..10 {
        for v in (u + 1)..10 {
            edges.push((u, v));
            edges.push((10 + u, 10 + v));
        }
    }
    let g = Graph::from_edges(20, edges);
    let h = run_better(&g, 0.75, 25, 100);
    let mut comps = h.components();
    assert!(!comps.connected(0, 10), "sparsifier bridged components");
    // And cuts inside each clique are still approximated.
    let err = random_cut_audit(&g, &h, 300, 27);
    assert!(err <= 0.75, "error {err}");
}

#[test]
fn fig3_uses_less_space_than_fig2_at_small_eps() {
    // The point of Fig. 3 (Theorem 3.4 vs Lemma 3.2): the ε⁻² factor
    // multiplies log⁴n instead of log⁵n — at small ε the sketch is
    // substantially smaller for the same accuracy target.
    let n = 40;
    let eps = 0.2;
    let fig2 = SimpleSparsifySketch::new(n, eps, 1);
    let fig3 = SparsifySketch::new(n, eps, 2);
    assert!(
        fig3.cell_count() < fig2.cell_count() / 2,
        "fig3 {} cells vs fig2 {}",
        fig3.cell_count(),
        fig2.cell_count()
    );
    // And both still pass the accuracy audit on a dense input.
    let g = gen::complete(36);
    let h2 = run_simple(&g, 0.75, 29, 0);
    let h3 = run_better(&g, 0.75, 31, 0);
    for (h, tag) in [(h2, "fig2"), (h3, "fig3")] {
        let err = random_cut_audit(&g, &h, 300, 33);
        assert!(err <= 0.75, "{tag}: {err}");
    }
}
