//! Randomized differential harness: sketch answers vs. exact in-memory
//! algorithms over hundreds of generated graph scenarios — sparse, dense,
//! structured, multigraph, and insert/delete churn streams.
//!
//! Every scenario is seeded and deterministic. The base seed is `1`
//! unless `GS_DIFF_SEED` overrides it (CI runs the harness under two
//! fixed seeds), so a failure reproduces with
//! `GS_DIFF_SEED=<seed> cargo test --test integration_differential`.
//! The w.h.p. guarantees of the paper become hard assertions here:
//! connectivity and k-edge-connectivity must match the exact algorithms
//! outright, MST weight must land in its `(1+ε)` window, and sparsifier
//! cut queries must stay within ε of the true cut values.

use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use graph_sketches::SparsifySketch;
use gs_field::SplitMix64;
use gs_graph::cuts::random_cut_audit;
use gs_graph::{gen, stoer_wagner, Graph, UnionFind};
use gs_sketch::{DecodePlan, EdgeUpdate, LinearSketch};

/// Scenario counts per question; the total (80 + 48 + 48 + 32 = 208)
/// keeps the harness above two hundred generated graphs.
const CONNECTIVITY_SCENARIOS: usize = 80;
const KCONNECT_SCENARIOS: usize = 48;
const MST_SCENARIOS: usize = 48;
const CUT_SCENARIOS: usize = 32;

/// Base seed for the whole harness: fixed, overridable via `GS_DIFF_SEED`.
fn base_seed() -> u64 {
    match gs_sketch::env::diff_seed() {
        Ok(seed) => seed.unwrap_or(1),
        Err(msg) => panic!("{msg}"),
    }
}

/// Deterministic per-scenario RNG: scenario `i` of question `tag`.
fn rng_for(tag: u64, i: usize) -> SplitMix64 {
    SplitMix64::new(
        base_seed()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag << 32)
            .wrapping_add(i as u64),
    )
}

/// One generated scenario: the final graph (the exact side's input) and a
/// dynamic update stream arriving at it (the sketch side's input), which
/// inserts every edge — multigraph multiplicities as parallel inserts —
/// interleaved with insert/delete decoy churn that cancels.
struct Scenario {
    tag: String,
    graph: Graph,
    updates: Vec<EdgeUpdate>,
}

/// Rotates through the graph families; `i` picks family, size, and churn.
fn scenario(question: u64, i: usize) -> Scenario {
    let mut rng = rng_for(question, i);
    let n = 8 + (rng.next_range(6) as usize); // 8..=13
    let seed = rng.next_u64();
    // Two of the eight families come from the gs-workloads adversarial
    // trace generators: the trace supplies both the update stream (with
    // its own churn baked in) and, by materializing it, the exact side.
    if i % 8 == 6 {
        let trace = gs_workloads::GeneratorSpec::PowerLawChurn {
            n,
            attach: 2,
            churn: rng.next_range(41) as usize,
            seed,
        }
        .generate();
        let graph = trace.materialize().expect("generated traces materialize");
        return Scenario {
            tag: format!(
                "#{i} trace:power-law-churn n={} m={} updates={}",
                graph.n(),
                graph.m(),
                trace.updates.len()
            ),
            graph,
            updates: trace.updates,
        };
    }
    if i % 8 == 7 {
        let trace = gs_workloads::GeneratorSpec::SlidingWindow {
            n,
            window: 2 + (rng.next_range(2) as usize),
            batches: 5 + (rng.next_range(4) as usize),
            rate: n,
            seed,
        }
        .generate();
        let graph = trace.materialize().expect("generated traces materialize");
        return Scenario {
            tag: format!(
                "#{i} trace:sliding-window n={} m={} updates={}",
                graph.n(),
                graph.m(),
                trace.updates.len()
            ),
            graph,
            updates: trace.updates,
        };
    }
    let (family, graph) = match i % 6 {
        0 => ("sparse", gen::gnp(n, 0.18, seed)),
        1 => ("dense", gen::gnp(n, 0.55, seed)),
        2 => ("planted", gen::planted_partition(n, 2, 0.7, 0.1, seed)),
        3 => ("barbell", gen::barbell(3 + n / 4, 1 + (i / 6) % 2)),
        4 => ("prefattach", gen::preferential_attachment(n, 2, seed)),
        _ => {
            // Multigraph: a sparse graph whose edges carry multiplicities
            // 1..=3 (the stream inserts them as parallel unit edges).
            let mut m = rng.clone();
            (
                "multigraph",
                gen::gnp(n, 0.25, seed).map_weights(|_, _, _| 1 + m.next_range(3)),
            )
        }
    };
    let churn = rng.next_range(61) as usize;
    let updates = gen::churn_stream(&graph, churn, rng.next_u64());
    Scenario {
        tag: format!(
            "#{i} {family} n={} m={} churn={churn}",
            graph.n(),
            graph.m()
        ),
        graph,
        updates,
    }
}

/// Chunked ingest with decodes interleaved: absorbs the stream in three
/// pieces and, at every chunk boundary, asserts the two-thread planned
/// decode is **bit-identical** to the sequential decode of the same
/// prefix.
fn absorb_with_planned_queries<S: LinearSketch>(sketch: &mut S, updates: &[EdgeUpdate], tag: &str)
where
    S::Output: PartialEq + std::fmt::Debug,
{
    let per = updates.len().div_ceil(3).max(1);
    let plan = DecodePlan::with_threads(2);
    for chunk in updates.chunks(per) {
        sketch.absorb(chunk);
        assert_eq!(
            sketch.decode_with(&plan),
            sketch.decode(),
            "{tag}: planned decode diverged after a chunk"
        );
    }
}

#[test]
fn connectivity_matches_exact_union_find() {
    let mut verdicts = [0usize; 2];
    for i in 0..CONNECTIVITY_SCENARIOS {
        let sc = scenario(0xC0, i);
        let spec = SketchSpec::new(SketchTask::Connectivity, sc.graph.n())
            .with_seed(rng_for(0xC1, i).next_u64());
        let mut sketch = spec.build();
        absorb_with_planned_queries(&mut sketch, &sc.updates, &sc.tag);
        let (components, connected) = match sketch.decode() {
            SketchAnswer::Connectivity {
                components,
                connected,
                ..
            } => (components, connected),
            other => panic!("unexpected answer {other:?}"),
        };
        let exact = sc.graph.components().component_count();
        assert_eq!(
            components, exact,
            "{}: sketch says {components} components, union-find says {exact}",
            sc.tag
        );
        assert_eq!(connected, sc.graph.is_connected(), "{}", sc.tag);
        verdicts[connected as usize] += 1;
    }
    // The family mix must exercise both outcomes, or the comparison
    // quietly stops testing anything.
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "one-sided connectivity workload: {verdicts:?}"
    );
}

#[test]
fn k_edge_connectivity_matches_exact_min_cut() {
    let mut verdicts = [0usize; 2];
    for i in 0..KCONNECT_SCENARIOS {
        let sc = scenario(0xEB, i);
        let k = 2 + i % 2;
        let spec = SketchSpec::new(SketchTask::KConnect, sc.graph.n())
            .with_k(k)
            .with_seed(rng_for(0xEC, i).next_u64());
        let mut sketch = spec.build();
        absorb_with_planned_queries(&mut sketch, &sc.updates, &sc.tag);
        let verdict = match sketch.decode() {
            SketchAnswer::KConnected { connected, .. } => connected,
            other => panic!("unexpected answer {other:?}"),
        };
        // Exact: k-edge-connected iff connected with global min cut >= k
        // (edge multiplicities count, which is what the weighted
        // Stoer–Wagner value measures on the materialized multigraph).
        let exact = sc.graph.is_connected() && stoer_wagner::min_cut_value(&sc.graph) >= k as u64;
        assert_eq!(
            verdict, exact,
            "{}: sketch k={k} verdict {verdict}, exact {exact}",
            sc.tag
        );
        verdicts[verdict as usize] += 1;
    }
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "one-sided k-connectivity workload: {verdicts:?}"
    );
}

/// Kruskal over the materialized graph: the exact minimum spanning forest
/// weight the sketch's `(1+ε)` window is anchored to.
fn exact_msf_weight(g: &Graph) -> u64 {
    let mut edges = g.edges().to_vec();
    edges.sort_by_key(|&(u, v, w)| (w, u, v));
    let mut uf = UnionFind::new(g.n());
    let mut total = 0;
    for (u, v, w) in edges {
        if uf.union(u, v) {
            total += w;
        }
    }
    total
}

#[test]
fn mst_weight_stays_in_its_eps_window() {
    let eps = 0.5;
    let max_w = 16;
    for i in 0..MST_SCENARIOS {
        let mut rng = rng_for(0xA5, i);
        let n = 8 + rng.next_range(5) as usize;
        let p = if i % 2 == 0 { 0.35 } else { 0.65 };
        let g = gen::gnp_weighted(n, p, max_w, rng.next_u64());
        // Weighted value-carrying stream with insert-delete decoy churn.
        let mut updates: Vec<EdgeUpdate> = g
            .edges()
            .iter()
            .map(|&(u, v, w)| EdgeUpdate::weighted(u, v, w, 1))
            .collect();
        for (j, &(u, v, w)) in g.edges().iter().enumerate().take(6) {
            let decoy_w = (w % 7) + 1;
            updates.insert(j * 2, EdgeUpdate::weighted(u, v, decoy_w, 1));
            updates.push(EdgeUpdate::weighted(u, v, decoy_w, -1));
        }
        let spec = SketchSpec::new(SketchTask::Mst, n)
            .with_eps(eps)
            .with_max_weight(max_w)
            .with_seed(rng.next_u64());
        let mut sketch = spec.build();
        absorb_with_planned_queries(&mut sketch, &updates, &format!("mst #{i}"));
        let approx = match sketch.decode() {
            SketchAnswer::Msf { total_weight, .. } => total_weight,
            other => panic!("unexpected answer {other:?}"),
        };
        let exact = exact_msf_weight(&g);
        assert!(
            approx as f64 >= exact as f64 * 0.999,
            "#{i} n={n} m={}: MST approx {approx} below exact {exact}",
            g.m()
        );
        assert!(
            approx as f64 <= (1.0 + eps) * exact as f64 + 1.0,
            "#{i} n={n} m={}: MST approx {approx} above (1+eps)*{exact}",
            g.m()
        );
    }
}

#[test]
fn sparsifier_answers_cut_queries_within_eps() {
    let eps = 0.75;
    for i in 0..CUT_SCENARIOS {
        let mut rng = rng_for(0x5A, i);
        let n = 10 + rng.next_range(5) as usize;
        let g = match i % 3 {
            0 => gen::gnp(n, 0.4, rng.next_u64()),
            1 => gen::planted_partition(n, 2, 0.75, 0.15, rng.next_u64()),
            _ => gen::gnp(n, 0.7, rng.next_u64()),
        };
        let mut sketch = SparsifySketch::new(n, eps, rng.next_u64());
        let updates = gen::churn_stream(&g, rng.next_range(41) as usize, rng.next_u64());
        // Graph has no PartialEq; pin the planned sparsifier by edge list.
        let per = updates.len().div_ceil(3).max(1);
        for chunk in updates.chunks(per) {
            sketch.absorb(chunk);
            let planned = sketch.decode_with(&DecodePlan::with_threads(2));
            assert_eq!(
                planned.edges(),
                sketch.decode().edges(),
                "#{i} planned sparsifier diverged"
            );
        }
        let h = sketch.decode();
        let err = random_cut_audit(&g, &h, 150, rng.next_u64());
        assert!(
            err <= eps,
            "#{i} n={n} m={}: cut-query error {err} exceeds eps {eps}",
            g.m()
        );
    }
}
