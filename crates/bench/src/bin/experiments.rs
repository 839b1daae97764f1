//! Experiment harness: one validation table per paper artifact.
//!
//! Usage:  `cargo run -p gs-bench --release --bin experiments -- [e1|e2|…|e14|all]`
//!
//! Each experiment regenerates the claim of a figure/theorem (DESIGN.md §5)
//! and prints the rows recorded in EXPERIMENTS.md.

#![forbid(unsafe_code)]

use graph_sketches::mincut::MinCutParams;
use graph_sketches::spanner::recurse::stretch_bound;
use graph_sketches::spanner::{baswana_sen, recurse_connect, BaswanaSenParams, RecurseParams};
use graph_sketches::weighted::WeightedSparsifySketch;
use graph_sketches::{
    ForestSketch, KEdgeConnectSketch, MinCutSketch, SimpleSparsifySketch, SketchSpec, SketchTask,
    SparsifySketch, SubgraphSketch,
};
use gs_bench::{fmax, header, median, row, CELL_BYTES};
use gs_field::{BackendKind, NisanGenerator, SplitMix64};
use gs_graph::cuts::random_cut_audit;
use gs_graph::paths::max_stretch;
use gs_graph::subgraph::{gamma, Pattern};
use gs_graph::{gen, offline_sparsify, stoer_wagner, GomoryHuTree, Graph};
use gs_sketch::{L0Result, L0Sampler, SparseRecovery};
use gs_stream::distributed::{sketch_central, sketch_distributed};
use gs_stream::passes::Meter;
use gs_stream::GraphStream;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let all = which == "all";
    let run = |id: &str| all || which == id;
    if run("e1") {
        e1_l0_sampling();
    }
    if run("e2") {
        e2_sparse_recovery();
    }
    if run("e3") {
        e3_kedge();
    }
    if run("e4") {
        e4_mincut();
    }
    if run("e5") {
        e5_e6_sparsifiers();
    }
    if run("e7") {
        e7_weighted();
    }
    if run("e8") {
        e8_subgraphs();
    }
    if run("e9") {
        e9_nisan();
    }
    if run("e10") {
        e10_baswana_sen();
    }
    if run("e11") {
        e11_e14_recurse();
    }
    if run("e12") {
        e12_distributed();
    }
    if run("e13") {
        e13_martingale();
    }
}

// ---------------------------------------------------------------- E1
fn e1_l0_sampling() {
    println!("\n== E1: Theorem 2.1 — l0-sampling (uniform support samples, FAIL <= delta) ==");
    header(
        &[
            "domain",
            "support",
            "trials",
            "fail%",
            "non-member%",
            "chi2/df",
        ],
        &[10, 8, 7, 7, 12, 8],
    );
    let mut rng = SplitMix64::new(1);
    for (domain, support_size) in [
        (1u64 << 8, 4usize),
        (1 << 12, 16),
        (1 << 12, 256),
        (1 << 16, 64),
        (1 << 16, 2048),
    ] {
        let trials = 600;
        let support: Vec<u64> = {
            let mut s = std::collections::BTreeSet::new();
            while s.len() < support_size {
                s.insert(rng.next_range(domain));
            }
            s.into_iter().collect()
        };
        let mut fails = 0usize;
        let mut bad = 0usize;
        let mut counts = vec![0usize; support.len()];
        for t in 0..trials {
            let mut smp = L0Sampler::new(domain, 0xE1_000 + t as u64);
            // Insert everything plus churn that cancels.
            for &i in &support {
                smp.update(i, 1);
            }
            let decoy = rng.next_range(domain);
            smp.update(decoy, 3);
            smp.update(decoy, -3);
            match smp.query() {
                L0Result::Sample(i, _) => match support.binary_search(&i) {
                    Ok(pos) => counts[pos] += 1,
                    Err(_) => bad += 1,
                },
                L0Result::Fail => fails += 1,
                L0Result::Empty => bad += 1,
            }
        }
        let ok = (trials - fails - bad) as f64;
        let expect = ok / support.len() as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect.max(1e-9)
            })
            .sum();
        row(
            &[
                format!("2^{}", domain.trailing_zeros()),
                format!("{support_size}"),
                format!("{trials}"),
                format!("{:.1}", 100.0 * fails as f64 / trials as f64),
                format!("{:.2}", 100.0 * bad as f64 / trials as f64),
                format!("{:.2}", chi2 / (support.len() - 1) as f64),
            ],
            &[10, 8, 7, 7, 12, 8],
        );
    }
    println!("claim shape: FAIL rate small & constant; non-member rate ~0; chi2/df ~ 1 (uniform).");
}

// ---------------------------------------------------------------- E2
fn e2_sparse_recovery() {
    println!("\n== E2: Theorem 2.2 — k-RECOVERY (exact iff <= k nonzeros) ==");
    header(
        &["k", "support", "trials", "exact%", "fail%", "wrong"],
        &[6, 8, 7, 8, 7, 6],
    );
    let mut rng = SplitMix64::new(2);
    for k in [2usize, 8, 32, 128] {
        for mult in [1usize, 16] {
            let support = k * mult;
            let trials = 300;
            let (mut exact, mut fail, mut wrong) = (0, 0, 0);
            for t in 0..trials {
                let domain = 1u64 << 20;
                let mut s = SparseRecovery::new(domain, k, 0xE2_000 + t as u64);
                let mut truth = std::collections::BTreeMap::new();
                while truth.len() < support {
                    let i = rng.next_range(domain);
                    let v = rng.next_range(100) as i64 + 1;
                    truth.insert(i, v);
                }
                for (&i, &v) in &truth {
                    s.update(i, v);
                }
                match s.decode() {
                    Some(got) => {
                        if got == truth.clone().into_iter().collect::<Vec<_>>() {
                            exact += 1;
                        } else {
                            wrong += 1;
                        }
                    }
                    None => fail += 1,
                }
            }
            row(
                &[
                    format!("{k}"),
                    format!("{support}"),
                    format!("{trials}"),
                    format!("{:.1}", 100.0 * exact as f64 / trials as f64),
                    format!("{:.1}", 100.0 * fail as f64 / trials as f64),
                    format!("{wrong}"),
                ],
                &[6, 8, 7, 8, 7, 6],
            );
        }
    }
    println!("claim shape: support <= k ⇒ ~100% exact; far beyond capacity ⇒ FAIL, never a wrong vector.");
}

// ---------------------------------------------------------------- E3
fn e3_kedge() {
    println!("\n== E3: Theorem 2.3 — k-EDGECONNECT witness ==");
    header(
        &["graph", "k", "bridges kept", "edges", "<=k(n-1)", "KiB"],
        &[16, 4, 13, 7, 9, 8],
    );
    for (tag, g, bridges) in [
        ("barbell(10,2)", gen::barbell(10, 2), 2usize),
        ("barbell(10,5)", gen::barbell(10, 5), 5),
        ("gnp(40,.3)", gen::gnp(40, 0.3, 3), 0),
    ] {
        for k in [3usize, 6] {
            let mut s = KEdgeConnectSketch::new(g.n(), k, 0xE3);
            GraphStream::with_churn(&g, 300, 5).replay(|u, v, d| s.update_edge(u, v, d));
            let h = s.decode_witness();
            let kept = (0..bridges)
                .filter(|&b| h.has_edge(b, g.n() / 2 + b))
                .count();
            row(
                &[
                    tag.into(),
                    format!("{k}"),
                    format!("{}/{}", kept, bridges.min(k)),
                    format!("{}", h.m()),
                    format!("{}", h.m() <= k * (g.n() - 1)),
                    format!("{}", s.cell_count() * CELL_BYTES / 1024),
                ],
                &[16, 4, 13, 7, 9, 8],
            );
        }
    }
    println!("claim shape: every edge of every <=k cut present; witness size O(kn).");
}

// ---------------------------------------------------------------- E4
fn e4_mincut() {
    println!("\n== E4: Fig.1 / Thm 3.2 — MINCUT (1+eps approximation) ==");
    header(
        &["graph", "lambda", "eps", "median", "worst-ratio", "KiB"],
        &[16, 7, 5, 7, 12, 9],
    );
    for (tag, g) in [
        ("barbell(12,2)", gen::barbell(12, 2)),
        ("barbell(12,6)", gen::barbell(12, 6)),
        ("complete(28)", gen::complete(28)),
        ("gnp(36,.4)", gen::gnp(36, 0.4, 7)),
    ] {
        let exact = stoer_wagner::min_cut_value(&g) as f64;
        for eps in [0.5f64, 1.0] {
            let mut vals = Vec::new();
            let mut cells = 0;
            for seed in 0..7 {
                let mut s = MinCutSketch::new(g.n(), eps, 0xE4_00 + seed);
                GraphStream::inserts_of(&g).replay(|u, v, d| s.update_edge(u, v, d));
                cells = s.cell_count();
                vals.push(s.decode().map(|e| e.value as f64).unwrap_or(f64::NAN));
            }
            let ratios: Vec<f64> = vals.iter().map(|v| v / exact.max(1.0)).collect();
            let worst = ratios
                .iter()
                .map(|r| (r - 1.0).abs())
                .fold(0.0f64, f64::max);
            row(
                &[
                    tag.into(),
                    format!("{exact}"),
                    format!("{eps}"),
                    format!("{:.1}", median(&vals)),
                    format!("{:.2}", worst),
                    format!("{}", cells * CELL_BYTES / 1024),
                ],
                &[16, 7, 5, 7, 12, 9],
            );
        }
    }
    // Constant sweep: as k approaches the paper's 6·eps^-2·log n the
    // subsampling stops being necessary and the answer becomes exact.
    println!("constant sweep on complete(28), eps = 0.5 (paper k would be 120 ⇒ exact):");
    header(&["k", "median", "worst-ratio"], &[6, 8, 12]);
    {
        let g = gen::complete(28);
        let exact = 27.0;
        for k in [10usize, 20, 40] {
            let mut vals = Vec::new();
            for seed in 0..7 {
                let mut p = MinCutParams::scaled(28, 0.5);
                p.k = k;
                let mut s = MinCutSketch::with_params(28, p, 0xE4_40 + seed);
                GraphStream::inserts_of(&g).replay(|u, v, d| s.update_edge(u, v, d));
                vals.push(s.decode().map(|e| e.value as f64).unwrap_or(f64::NAN));
            }
            let worst = vals
                .iter()
                .map(|v| (v / exact - 1.0).abs())
                .fold(0.0f64, f64::max);
            row(
                &[
                    format!("{k}"),
                    format!("{:.1}", median(&vals)),
                    format!("{:.2}", worst),
                ],
                &[6, 8, 12],
            );
        }
    }
    // Space shape vs n.
    println!("space growth (eps = 0.5):");
    header(&["n", "cells", "cells/(n log^4 n)"], &[6, 12, 18]);
    for n in [32usize, 64, 128] {
        let s = MinCutSketch::new(n, 0.5, 1);
        let l = (n as f64).log2();
        row(
            &[
                format!("{n}"),
                format!("{}", s.cell_count()),
                format!("{:.3}", s.cell_count() as f64 / (n as f64 * l.powi(4))),
            ],
            &[6, 12, 18],
        );
    }
    println!("claim shape: small cuts exact; large cuts within band; cells ~ eps^-2 n polylog.");
}

// ---------------------------------------------------------------- E5/E6
fn e5_e6_sparsifiers() {
    println!("\n== E5/E6: Fig.2 (Thm 3.3) vs Fig.3 (Thm 3.4) vs offline Fung (Thm 3.1) ==");
    header(
        &["workload", "eps", "algo", "worst-err", "edges", "KiB"],
        &[18, 5, 8, 10, 7, 10],
    );
    for (tag, g) in [
        ("gnp(40,.35)", gen::gnp(40, 0.35, 11)),
        ("planted(36)", gen::planted_partition(36, 2, 0.8, 0.08, 13)),
        ("complete(36)", gen::complete(36)),
    ] {
        let tree = GomoryHuTree::build(&g);
        let gh_cuts: Vec<Vec<bool>> = tree.induced_cuts().map(|(_, _, s)| s).collect();
        for eps in [0.5f64, 1.0] {
            // Fig 2
            let mut s2 = SimpleSparsifySketch::new(g.n(), eps, 0xE5);
            GraphStream::with_churn(&g, 300, 17).replay(|u, v, d| s2.update_edge(u, v, d));
            let h2 = s2.decode();
            // Fig 3
            let mut s3 = SparsifySketch::new(g.n(), eps, 0xE6);
            GraphStream::with_churn(&g, 300, 19).replay(|u, v, d| s3.update_edge(u, v, d));
            let h3 = s3.decode();
            // Offline baseline
            let hf = offline_sparsify::fung_connectivity(&g, eps, 1.0, 21);
            let gf = offline_sparsify::scaled_reference(&g);
            for (algo, h, reference, cells) in [
                ("fig2", &h2, &g, s2.cell_count()),
                ("fig3", &h3, &g, s3.cell_count()),
                ("fung", &hf, &gf, 0),
            ] {
                let err = gs_graph::cuts::cut_family_audit(reference, h, gh_cuts.clone())
                    .max(random_cut_audit(reference, h, 300, 23));
                row(
                    &[
                        tag.into(),
                        format!("{eps}"),
                        algo.into(),
                        format!("{:.3}", err),
                        format!("{}", h.m()),
                        if cells == 0 {
                            "-".into()
                        } else {
                            format!("{}", cells * CELL_BYTES / 1024)
                        },
                    ],
                    &[18, 5, 8, 10, 7, 10],
                );
            }
        }
    }
    // Space crossover (construction only): Fig. 3's rough part is pinned
    // at eps = 1/2, so as eps shrinks its eps^-2 term multiplies log^4
    // instead of log^5 — Theorem 3.4 vs Lemma 3.2.
    println!("space crossover, n = 40 (MiB of 1-sparse cells, computed analytically):");
    header(&["eps", "fig2 MiB", "fig3 MiB", "ratio"], &[6, 9, 9, 7]);
    let n = 40usize;
    let det_levels = 10usize; // ⌈log2 C(40,2)⌉
    let fig2_cells = |eps: f64| {
        let p = graph_sketches::simple_sparsify::SimpleSparsifyParams::scaled(n, eps).0;
        p.levels * p.k * p.forest.rounds * n * p.forest.detector_reps * det_levels
    };
    for eps in [1.0f64, 0.5, 0.25, 0.125] {
        let f2 = fig2_cells(eps) * CELL_BYTES;
        let sp = graph_sketches::sparsify::SparsifyParams::scaled(n, eps);
        let f3 = (fig2_cells(0.5) + sp.levels * n * 4 * (2 * sp.recovery_k).max(8)) * CELL_BYTES;
        row(
            &[
                format!("{eps}"),
                format!("{:.1}", f2 as f64 / (1 << 20) as f64),
                format!("{:.1}", f3 as f64 / (1 << 20) as f64),
                format!("{:.2}", f3 as f64 / f2 as f64),
            ],
            &[6, 9, 9, 7],
        );
    }
    println!("claim shape: errors <= eps (eps=0.5 rows keep everything: k exceeds all edge");
    println!("connectivities at this n); fig3/fig2 space ratio drops below 1 as eps shrinks.");
}

// ---------------------------------------------------------------- E7
fn e7_weighted() {
    println!("\n== E7: §3.5 / Thm 3.8 — weighted sparsification by weight classes ==");
    header(
        &[
            "L (max w)",
            "classes",
            "worst-err",
            "edges(in)",
            "edges(out)",
        ],
        &[10, 8, 10, 10, 10],
    );
    for max_w in [4u64, 16, 64] {
        let g = gen::gnp_weighted(30, 0.45, max_w, 25);
        let eps = 0.75;
        let mut s = WeightedSparsifySketch::new(g.n(), eps, max_w, 0xE7);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w, 1);
        }
        let h = s.decode();
        let err = random_cut_audit(&g, &h, 400, 27);
        row(
            &[
                format!("{max_w}"),
                format!("{}", (64 - max_w.leading_zeros()) as usize),
                format!("{:.3}", err),
                format!("{}", g.m()),
                format!("{}", h.m()),
            ],
            &[10, 8, 10, 10, 10],
        );
    }
    println!("claim shape: errors <= eps across weight ranges; O(log L) classes.");
}

// ---------------------------------------------------------------- E8
fn e8_subgraphs() {
    println!("\n== E8: Fig.4 / Thm 4.1 — gamma_H within additive eps with O(eps^-2) samples ==");
    header(
        &[
            "workload",
            "pattern",
            "eps",
            "exact",
            "median-err",
            "max-err",
        ],
        &[16, 10, 6, 8, 10, 8],
    );
    let workloads: Vec<(&str, Graph)> = vec![
        ("gnp(20,.3)", gen::gnp(20, 0.3, 29)),
        ("gnp(20,.6)", gen::gnp(20, 0.6, 31)),
        ("planted(20)", gen::planted_partition(20, 4, 0.9, 0.05, 33)),
    ];
    for (tag, g) in &workloads {
        for (pname, pat, k) in [
            ("triangle", Pattern::triangle(), 3usize),
            ("path3", Pattern::path3(), 3),
            ("k4", Pattern::k4(), 4),
            ("c4", Pattern::c4(), 4),
        ] {
            let eps = 0.2;
            let exact = gamma(g, &pat);
            let mut errs = Vec::new();
            for seed in 0..5u64 {
                let mut s = SubgraphSketch::new(g.n(), k, eps, 0xE8_00 + seed);
                GraphStream::with_churn(g, 100, seed).replay(|u, v, d| s.update_edge(u, v, d));
                if let Some(est) = s.estimate_gamma(&pat) {
                    errs.push((est - exact).abs());
                }
            }
            row(
                &[
                    tag.to_string(),
                    pname.into(),
                    format!("{eps}"),
                    format!("{:.3}", exact),
                    format!("{:.3}", median(&errs)),
                    format!("{:.3}", fmax(&errs)),
                ],
                &[16, 10, 6, 8, 10, 8],
            );
        }
    }
    // eps sweep on triangles (the Buriol comparison case).
    println!("eps sweep, triangles on gnp(20,.45):");
    header(
        &["eps", "samplers", "median-err", "max-err"],
        &[6, 9, 10, 8],
    );
    let g = gen::gnp(20, 0.45, 35);
    let exact = gamma(&g, &Pattern::triangle());
    for eps in [0.4f64, 0.2, 0.1] {
        let mut errs = Vec::new();
        let mut count = 0;
        for seed in 0..7u64 {
            let mut s = SubgraphSketch::new(g.n(), 3, eps, 0xE8_80 + seed);
            GraphStream::inserts_of(&g).replay(|u, v, d| s.update_edge(u, v, d));
            count = s.sample_count();
            if let Some(est) = s.estimate_gamma(&Pattern::triangle()) {
                errs.push((est - exact).abs());
            }
        }
        row(
            &[
                format!("{eps}"),
                format!("{count}"),
                format!("{:.3}", median(&errs)),
                format!("{:.3}", fmax(&errs)),
            ],
            &[6, 9, 10, 8],
        );
    }
    println!("claim shape: additive error tracks eps as samples grow like eps^-2.");
}

// ---------------------------------------------------------------- E9
fn e9_nisan() {
    println!("\n== E9: §3.4 / Thm 3.5 — oracle vs Nisan PRG backends ==");
    let gen40 = NisanGenerator::new(40, 1);
    println!(
        "Nisan seed: {} bits for 2^40 output blocks (vs 61*2^40 truly random bits).",
        gen40.seed_bits()
    );
    header(&["task", "backend", "success%"], &[22, 9, 9]);
    for kind in [BackendKind::Oracle, BackendKind::Nisan] {
        // Task 1: sparse recovery battery.
        let mut ok = 0;
        let trials = 200;
        let mut rng = SplitMix64::new(3);
        for t in 0..trials {
            let mut s = SparseRecovery::with_kind(1 << 16, 8, 0xE9_00 + t as u64, kind);
            let mut truth = std::collections::BTreeMap::new();
            while truth.len() < 8 {
                truth.insert(rng.next_range(1 << 16), 1i64);
            }
            for (&i, &v) in &truth {
                s.update(i, v);
            }
            if s.decode() == Some(truth.into_iter().collect()) {
                ok += 1;
            }
        }
        row(
            &[
                "k-recovery(k=8)".into(),
                format!("{kind:?}"),
                format!("{:.1}", 100.0 * ok as f64 / trials as f64),
            ],
            &[22, 9, 9],
        );
        // Task 2: spanning forest on a churn stream.
        let g = gen::connected_gnp(40, 0.15, 37);
        let mut ok = 0;
        let trials = 30;
        for seed in 0..trials {
            let mut params = graph_sketches::connectivity::ForestParams::for_n(40);
            params.kind = kind;
            let mut s = ForestSketch::with_params(40, params, 0xE9_80 + seed);
            GraphStream::with_churn(&g, 200, seed).replay(|u, v, d| s.update_edge(u, v, d));
            if s.decode().is_spanning_tree() {
                ok += 1;
            }
        }
        row(
            &[
                "spanning-forest".into(),
                format!("{kind:?}"),
                format!("{:.1}", 100.0 * ok as f64 / trials as f64),
            ],
            &[22, 9, 9],
        );
        // Task 3: MINCUT on a barbell.
        let g = gen::barbell(10, 2);
        let mut ok = 0;
        for seed in 0..20u64 {
            let mut p = MinCutParams::scaled(g.n(), 0.5);
            p.kind = kind;
            p.forest.kind = kind;
            let mut s = MinCutSketch::with_params(g.n(), p, 0xE9_C0 + seed);
            GraphStream::inserts_of(&g).replay(|u, v, d| s.update_edge(u, v, d));
            if s.decode().map(|e| e.value) == Some(2) {
                ok += 1;
            }
        }
        row(
            &[
                "mincut(barbell)".into(),
                format!("{kind:?}"),
                format!("{:.1}", 100.0 * ok as f64 / 20.0),
            ],
            &[22, 9, 9],
        );
    }
    println!("claim shape: success rates indistinguishable between backends (Thm 3.5).");
}

// ---------------------------------------------------------------- E10
fn e10_baswana_sen() {
    println!("\n== E10: §5 — Baswana-Sen emulation: (2k-1)-spanner in k passes ==");
    header(
        &["graph", "k", "passes", "edges", "stretch", "bound"],
        &[16, 4, 7, 7, 8, 6],
    );
    for (tag, g) in [
        ("gnp(60,.12)", gen::connected_gnp(60, 0.12, 39)),
        ("grid(8x8)", gen::grid(8, 8)),
        ("pa(60,3)", gen::preferential_attachment(60, 3, 41)),
        ("complete(60)", gen::complete(60)),
    ] {
        let stream = GraphStream::inserts_of(&g);
        for k in [2usize, 3, 5] {
            let mut meter = Meter::new(&stream);
            let h = baswana_sen(
                &mut meter,
                BaswanaSenParams::scaled(g.n(), k),
                0xEA + k as u64,
            );
            let s = max_stretch(&g, &h).unwrap_or(f64::INFINITY);
            row(
                &[
                    tag.into(),
                    format!("{k}"),
                    format!("{}", meter.passes()),
                    format!("{}", h.m()),
                    format!("{:.2}", s),
                    format!("{}", 2 * k - 1),
                ],
                &[16, 4, 7, 7, 8, 6],
            );
        }
    }
    // Size scaling at k = 2: edges / n^{1.5} roughly flat.
    println!("size scaling at k=2 on complete graphs:");
    header(&["n", "edges", "edges/n^1.5"], &[6, 8, 12]);
    for n in [30usize, 60, 90] {
        let g = gen::complete(n);
        let stream = GraphStream::inserts_of(&g);
        let mut meter = Meter::new(&stream);
        let h = baswana_sen(&mut meter, BaswanaSenParams::scaled(n, 2), 0xEB);
        row(
            &[
                format!("{n}"),
                format!("{}", h.m()),
                format!("{:.2}", h.m() as f64 / (n as f64).powf(1.5)),
            ],
            &[6, 8, 12],
        );
    }
    println!("claim shape: passes = k; stretch <= 2k-1; edges ~ n^{{1+1/k}} (dense inputs).");
}

// ---------------------------------------------------------------- E11 + E14
fn e11_e14_recurse() {
    println!("\n== E11: §5.1 / Thm 5.1 — RECURSECONNECT: (k^log2(5) - 1)-spanner in ceil(log k)+1 passes ==");
    header(
        &[
            "graph", "k", "passes", "<=logk+1", "edges", "stretch", "bound",
        ],
        &[16, 4, 7, 9, 7, 8, 7],
    );
    for (tag, g) in [
        ("gnp(80,.15)", gen::connected_gnp(80, 0.15, 43)),
        ("grid(9x9)", gen::grid(9, 9)),
        ("complete(81)", gen::complete(81)),
    ] {
        let stream = GraphStream::inserts_of(&g);
        for k in [2usize, 4, 8] {
            let mut meter = Meter::new(&stream);
            let (h, _) = recurse_connect(&mut meter, RecurseParams::scaled(k), 0xEC + k as u64);
            let s = max_stretch(&g, &h).unwrap_or(f64::INFINITY);
            let pbound = (usize::BITS - (k - 1).leading_zeros()) as usize + 1;
            row(
                &[
                    tag.into(),
                    format!("{k}"),
                    format!("{}", meter.passes()),
                    format!("{}", meter.passes() <= pbound),
                    format!("{}", h.m()),
                    format!("{:.2}", s),
                    format!("{:.1}", stretch_bound(k)),
                ],
                &[16, 4, 7, 9, 7, 8, 7],
            );
        }
    }
    // E14: Lemma 5.1 audit on a dense run.
    println!("\n== E14: Lemma 5.1 audit — a_1 <= 4, a_(i+1) <= 5 a_i + 4 on collapsed sets ==");
    header(
        &["phase", "supervertices", "max intra dist", "bound a_i"],
        &[6, 14, 15, 10],
    );
    let g = gen::connected_gnp(90, 0.3, 45);
    let stream = GraphStream::inserts_of(&g);
    let mut meter = Meter::new(&stream);
    let (h, trace) = recurse_connect(&mut meter, RecurseParams::scaled(4), 0xED);
    let dh = gs_graph::paths::all_pairs_distances(&h);
    let mut bound = 0u32;
    for p in &trace.phases {
        bound = 5 * bound + 4;
        let mut worst = 0u32;
        for members in &p.members {
            for (ai, &a) in members.iter().enumerate() {
                for &b in &members[ai + 1..] {
                    worst = worst.max(dh[a][b]);
                }
            }
        }
        row(
            &[
                format!("{}", p.phase),
                format!("{}", p.members.len()),
                format!("{worst}"),
                format!("{bound}"),
            ],
            &[6, 14, 15, 10],
        );
    }
    println!("claim shape: measured intra-cluster distances within the Lemma 5.1 recursion.");
}

// ---------------------------------------------------------------- E12
fn e12_distributed() {
    println!("\n== E12: §1.1 — distributed streams: merged site sketches == central sketch ==");
    header(
        &["structure", "sites", "bit-identical decode"],
        &[18, 6, 22],
    );
    let g = gen::gnp(30, 0.3, 47);
    let stream = GraphStream::with_churn(&g, 500, 49);
    let updates = stream.edge_updates();
    for sites in [2usize, 4, 16] {
        let make = || ForestSketch::new(30, 0xEE);
        let central = sketch_central(&updates, make);
        let dist = sketch_distributed(&updates, sites, 51, make);
        row(
            &[
                "forest".into(),
                format!("{sites}"),
                // Bit-identical sketch state, which implies identical decode.
                format!("{}", dist == central),
            ],
            &[18, 6, 22],
        );
    }
    // Runtime dispatch takes the same path: AnySketch is a LinearSketch.
    for task in [SketchTask::MinCut, SketchTask::Sparsify] {
        let spec = SketchSpec::new(task, 30).with_seed(0xEF);
        for sites in [2usize, 8] {
            let central = sketch_central(&updates, || spec.build());
            let dist = sketch_distributed(&updates, sites, 53, || spec.build());
            row(
                &[
                    spec.task.command().into(),
                    format!("{sites}"),
                    format!("{}", dist == central),
                ],
                &[18, 6, 22],
            );
        }
    }
    println!("claim shape: true everywhere — linearity makes partitioning free.");
}

// ---------------------------------------------------------------- E13
fn e13_martingale() {
    println!("\n== E13: Lemma 3.5 — freeze-and-double concentration (Azuma shape) ==");
    // Simulate the §3.2 process on a cut of |C| edges: each edge has a
    // freeze level; its weight doubles per survived round, 0 if sampled
    // out. Compare empirical deviation tails with 2 exp(-0.38 eps^2 p N).
    header(
        &["|C|", "p", "eps", "empirical P", "bound"],
        &[6, 8, 5, 12, 10],
    );
    let mut rng = SplitMix64::new(4);
    for (c_size, p) in [(64usize, 0.25f64), (256, 0.0625)] {
        let freeze_round = (1.0 / p).log2().round() as usize;
        for eps in [0.25f64, 0.5, 1.0] {
            let trials = 4000;
            let mut exceed = 0usize;
            for _ in 0..trials {
                let mut total = 0f64;
                for _ in 0..c_size {
                    // Survive `freeze_round` coin flips, doubling weight.
                    let mut w = 1f64;
                    for _ in 0..freeze_round {
                        if rng.next_f64() < 0.5 {
                            w *= 2.0;
                        } else {
                            w = 0.0;
                            break;
                        }
                    }
                    total += w;
                }
                if (total - c_size as f64).abs() >= eps * c_size as f64 {
                    exceed += 1;
                }
            }
            let bound = 2.0 * (-0.38 * eps * eps * p * c_size as f64).exp();
            row(
                &[
                    format!("{c_size}"),
                    format!("{p}"),
                    format!("{eps}"),
                    format!("{:.4}", exceed as f64 / trials as f64),
                    format!("{:.4}", bound.min(1.0)),
                ],
                &[6, 8, 5, 12, 10],
            );
        }
    }
    println!("claim shape: empirical tails below the Lemma 3.5 bound, decaying with eps^2 p N.");
}
