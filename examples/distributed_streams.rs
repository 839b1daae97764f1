//! Distributed streams (§1.1): IP-flow monitoring across collection sites.
//!
//! An IP-traffic graph's updates (flows starting = insertions, flows
//! ending = deletions) are observed at several collection points, no one
//! of which sees the whole stream — a flow can even *start* at one site
//! and *end* at another. Each site maintains its own sketch; the
//! coordinator adds the sketches and decodes global structure. Linearity
//! makes the merged sketch **bit-for-bit identical** to a single
//! observer's. Three increasingly realistic deployments of the same math:
//!
//! 1. **Batch**: [`sketch_distributed`] — sites as engine shards, one
//!    fold at the end.
//! 2. **Resident**: [`SketchEngine`] — a long-lived engine answering
//!    snapshot queries *while* the stream keeps flowing.
//! 3. **Cross-process**: [`SketchFile`] — each site receives the spec as
//!    JSON text and ships its sketch as checksummed binary bytes; the
//!    coordinator parses, checks compatibility, and merges bytes it
//!    received, exactly what the CLI's `sketch` / `merge` / `decode`
//!    verbs do between real processes.
//!
//! Run: `cargo run --release --example distributed_streams`

use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use graph_sketches::wire::SketchFile;
use gs_graph::{cuts, gen, Graph};
use gs_sketch::LinearSketch;
use gs_stream::distributed::{sketch_central, sketch_distributed, split_updates};
use gs_stream::engine::{EngineConfig, SketchEngine};

fn main() {
    let n = 40;
    let sites = 6;

    // The flow graph: heavy-tailed degrees (a few talkative hosts).
    let g = gen::preferential_attachment(n, 3, 11);
    let updates = gen::churn_stream(&g, 800, 13);
    println!(
        "{} updates across {sites} sites; net graph: {} edges / {} hosts",
        updates.len(),
        g.m(),
        n
    );

    // ---- 1. batch: sites as shards, folded in site order ----
    let spec = SketchSpec::new(SketchTask::Connectivity, n).with_seed(0xF10);
    let merged = sketch_distributed(&updates, sites, 17, || spec.build());
    let central = sketch_central(&updates, || spec.build());
    println!(
        "forest from merged site sketches == central observer's sketch: {}",
        merged == central
    );

    // ---- 2. resident engine: query mid-stream, then seal ----
    let mut engine = SketchEngine::new(EngineConfig::new(sites).with_seed(19), || spec.build());
    let mid = updates.len() / 2;
    for chunk in updates[..mid].chunks(256) {
        engine.ingest(chunk);
    }
    if let SketchAnswer::Connectivity { components, .. } = engine.snapshot().decode() {
        println!("mid-stream snapshot (ingestion not quiesced): {components} component(s)");
    }
    for chunk in updates[mid..].chunks(256) {
        engine.ingest(chunk);
    }
    let stats = engine.stats();
    let sealed = engine.seal();
    println!(
        "engine sealed after {} updates on {} worker thread(s): sealed == central: {}",
        stats.updates_routed,
        stats.workers,
        sealed == central
    );
    if let SketchAnswer::Connectivity {
        components,
        forest_edges,
        ..
    } = sealed.decode()
    {
        println!(
            "decoded at the coordinator: {components} component(s), {} forest edges",
            forest_edges.len()
        );
    }

    // ---- 3. cross-process shipping: sketches as binary sketch files ----
    let spec_json = spec.to_json(); // what the coordinator hands each site
    let mut coordinator: Option<SketchFile> = None;
    let mut wire_bytes = 0usize;
    for share in split_updates(&updates, sites, 23) {
        // One "site process": parse the spec, sketch the share, ship bytes.
        let site_spec = SketchSpec::from_json(&spec_json).expect("spec parses");
        let mut sk = site_spec.build();
        sk.absorb(&share);
        let shipped = SketchFile::new(site_spec, sk)
            .expect("state matches spec")
            .to_bytes();
        wire_bytes += shipped.len();
        // The coordinator trusts nothing: parse + compatibility check.
        let file = SketchFile::from_bytes(&shipped).expect("file parses");
        match &mut coordinator {
            None => coordinator = Some(file),
            Some(acc) => acc.try_merge(&file).expect("identical specs merge"),
        }
    }
    let merged_wire = coordinator.expect("sites shipped");
    println!(
        "{sites} shipped sketch files ({} wire bytes total) merge back to the central \
         sketch: {}",
        wire_bytes,
        merged_wire.state == central
    );
    println!(
        "the sketch file is the same size however long the stream runs — that is the \
         point of §1.1."
    );

    // ---- sparsifier through the very same distributed path ----
    let spec = SketchSpec::new(SketchTask::SimpleSparsify, n)
        .with_eps(0.6)
        .with_seed(0xF11);
    let answer = spec.run(&updates, sites);
    if let SketchAnswer::Sparsifier { edges, .. } = answer {
        let h = Graph::from_weighted_edges(n, edges);
        let err = cuts::random_cut_audit(&g, &h, 400, 21);
        println!(
            "distributed sparsifier: {} edges, worst random-cut error {:.3}",
            h.m(),
            err
        );
    }
}
