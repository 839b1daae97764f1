//! Cross-process sketch shipping (§1.1), in-process: for **every**
//! [`SketchSpec`] task, each site building its sketch from the spec's
//! JSON text and shipping it as a binary sketch file, re-parsing it "in a
//! different process" (a sketch rebuilt from nothing but the shipped
//! bytes), and merging at a coordinator must reproduce the central sketch
//! **bit for bit** — and incompatible or corrupted files must be refused,
//! not mis-merged.

use graph_sketches::api::{MergeError, SketchSpec, SketchTask};
use graph_sketches::wire::{SketchFile, WireError, V2_MAGIC, WIRE_FORMAT_BIN};
use gs_graph::gen;
use gs_sketch::{EdgeUpdate, LinearSketch};
use gs_stream::distributed::{sketch_central, split_updates};
use gs_stream::GraphStream;

fn churn_updates(n: usize, p: f64, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp(n, p, seed);
    GraphStream::with_churn(&g, 150, seed ^ 0xD1).edge_updates()
}

/// Weighted value-carrying workload for the §3.5 tasks.
fn weighted_updates(n: usize, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp_weighted(n, 0.4, 8, seed);
    let mut ups: Vec<EdgeUpdate> = g
        .edges()
        .iter()
        .map(|&(u, v, w)| EdgeUpdate::weighted(u, v, w, 1))
        .collect();
    for (i, &(u, v, w)) in g.edges().iter().enumerate().take(4) {
        let decoy_w = (w % 7) + 1;
        ups.insert(i * 2, EdgeUpdate::weighted(u, v, decoy_w, 1));
        ups.push(EdgeUpdate::weighted(u, v, decoy_w, -1));
    }
    ups
}

fn task_updates(task: SketchTask, n: usize, seed: u64) -> Vec<EdgeUpdate> {
    match task {
        SketchTask::WeightedSparsify | SketchTask::Mst => weighted_updates(n, seed),
        _ => churn_updates(n, 0.3, seed),
    }
}

/// One simulated site process: everything it learns arrives as text (the
/// spec JSON), everything it reports leaves as bytes (the sketch file).
fn site_process(spec_json: &str, share: &[EdgeUpdate]) -> Vec<u8> {
    let spec = SketchSpec::from_json(spec_json).expect("site parses the spec");
    let mut sketch = spec.build();
    sketch.absorb(share);
    SketchFile::new(spec, sketch)
        .expect("state matches spec")
        .to_bytes()
}

/// A site's file for `spec` over `share`, as the coordinator parses it.
fn received(spec: SketchSpec, share: &[EdgeUpdate]) -> SketchFile {
    SketchFile::from_bytes(&site_process(&spec.to_json(), share)).expect("coordinator parses")
}

#[test]
fn wire_round_trip_is_bit_exact_for_every_task() {
    for task in SketchTask::ALL {
        // max_weight 8 keeps the §3.5 weight-class count (and thus the
        // serialized state) small; the weighted workload stays within it.
        let spec = SketchSpec::new(task, 12)
            .with_eps(0.9)
            .with_max_weight(8)
            .with_seed(0x11E);
        let updates = task_updates(task, 12, 5);
        let central = sketch_central(&updates, || spec.build());

        // Three "processes" see disjoint shares and ship sketch files;
        // the coordinator merges bytes it parsed, never in-memory state.
        let spec_json = spec.to_json();
        let mut coordinator: Option<SketchFile> = None;
        for share in split_updates(&updates, 3, 0xF00) {
            let shipped = site_process(&spec_json, &share);
            let file = SketchFile::from_bytes(&shipped).expect("coordinator parses the file");
            match &mut coordinator {
                None => coordinator = Some(file),
                Some(acc) => acc.try_merge(&file).expect("compatible sites merge"),
            }
        }
        let merged = coordinator.expect("three sites shipped");
        assert_eq!(
            merged.state, central,
            "{task:?}: merged wire sketches != central sketch"
        );
        assert_eq!(
            merged.decode(),
            central.decode(),
            "{task:?}: answers differ"
        );

        // The merged file itself round-trips, to the same bytes.
        let bytes = merged.to_bytes();
        let reloaded = SketchFile::from_bytes(&bytes).expect("reload");
        assert_eq!(reloaded, merged, "{task:?}: merged file round trip");
        assert_eq!(
            reloaded.decode(),
            central.decode(),
            "{task:?}: reloaded answer"
        );
        assert_eq!(reloaded.to_bytes(), bytes, "{task:?}: bytes unstable");
    }
}

#[test]
fn mismatched_spec_loads_refuse_to_merge() {
    for (a, b) in [
        // Different seed: same projection family, different measurement.
        (
            SketchSpec::new(SketchTask::Connectivity, 10).with_seed(1),
            SketchSpec::new(SketchTask::Connectivity, 10).with_seed(2),
        ),
        // Different n.
        (
            SketchSpec::new(SketchTask::Connectivity, 10),
            SketchSpec::new(SketchTask::Connectivity, 12),
        ),
        // Different task altogether.
        (
            SketchSpec::new(SketchTask::Connectivity, 10),
            SketchSpec::new(SketchTask::Bipartite, 10),
        ),
        // Different eps on an approximation task.
        (
            SketchSpec::new(SketchTask::MinCut, 10).with_eps(0.5),
            SketchSpec::new(SketchTask::MinCut, 10).with_eps(0.25),
        ),
    ] {
        let mut left = received(a, &[]);
        let right = received(b, &[]);
        assert!(
            matches!(left.try_merge(&right), Err(WireError::SpecMismatch { .. })),
            "{a:?} vs {b:?} must refuse"
        );
    }
}

#[test]
fn format_version_gate_refuses_other_versions() {
    let spec = SketchSpec::new(SketchTask::Connectivity, 8);
    let good = site_process(&spec.to_json(), &[EdgeUpdate::insert(0, 1)]);
    let at = V2_MAGIC.len();
    assert_eq!(good[at..at + 4], WIRE_FORMAT_BIN.to_le_bytes());
    for found in [0u32, 2, 7] {
        let mut bad = good.clone();
        bad[at..at + 4].copy_from_slice(&found.to_le_bytes());
        assert_eq!(
            SketchFile::from_bytes(&bad),
            Err(WireError::Format {
                found: found as u64
            }),
            "version {found} must be refused"
        );
    }
}

#[test]
fn truncated_and_shapeless_files_fail_loudly() {
    let spec = SketchSpec::new(SketchTask::Mst, 8);
    let good = site_process(&spec.to_json(), &[]);
    assert!(SketchFile::from_bytes(&good[..good.len() / 2]).is_err());
    for shapeless in ["{\"format\":1}", "{}", "[1,2,3]", ""] {
        assert_eq!(
            SketchFile::from_bytes(shapeless.as_bytes()),
            Err(WireError::BadMagic),
            "{shapeless:?}"
        );
    }
}

#[test]
fn try_merge_reports_task_and_size_mismatches() {
    // The states as a coordinator holds them: shipped, then parsed.
    let ship = |spec: SketchSpec, share: &[EdgeUpdate]| received(spec, share).state;
    let mut conn = ship(SketchSpec::new(SketchTask::Connectivity, 8), &[]);
    let bip = ship(SketchSpec::new(SketchTask::Bipartite, 8), &[]);
    assert_eq!(
        conn.try_merge(&bip),
        Err(MergeError::TaskMismatch {
            left: SketchTask::Connectivity,
            right: SketchTask::Bipartite,
        })
    );
    let small = ship(SketchSpec::new(SketchTask::Connectivity, 4), &[]);
    assert_eq!(
        conn.try_merge(&small),
        Err(MergeError::SizeMismatch { left: 8, right: 4 })
    );
    // And a compatible pair merges fine through the same path.
    let spec = SketchSpec::new(SketchTask::Connectivity, 8);
    let mut a = ship(spec, &[EdgeUpdate::insert(0, 1)]);
    let b = ship(spec, &[EdgeUpdate::insert(1, 2)]);
    a.try_merge(&b).unwrap();
    let mut whole = spec.build();
    whole.absorb(&[EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 2)]);
    assert_eq!(a, whole);
}
