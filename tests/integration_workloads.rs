//! The workload pipeline, end to end: a seeded generator spec must
//! produce byte-identical trace files on every run; replaying a trace
//! through the sharded `SketchEngine` must answer identically to
//! feeding the same updates straight into one sketch, for **every**
//! task; and the experiment runner's serve path (a live `gs-serve`
//! server) must agree with its in-process engine path.

use graph_sketches::api::{SketchSpec, SketchTask};
use gs_serve::{ServeConfig, Server};
use gs_sketch::par::DecodePlan;
use gs_sketch::LinearSketch;
use gs_stream::engine::{EngineConfig, SketchEngine};
use gs_workloads::runner::{run_experiment, RunnerOpts, ServerTarget, TaskRow};
use gs_workloads::{GeneratorSpec, Trace};
use std::path::PathBuf;
use std::time::Duration;

/// The CLI/runner convention: engines are seeded apart from sketches.
const ENGINE_SEED_TWEAK: u64 = 0x517E5;

fn all_generators(seed: u64) -> Vec<GeneratorSpec> {
    vec![
        GeneratorSpec::PowerLawChurn {
            n: 32,
            attach: 2,
            churn: 20,
            seed,
        },
        GeneratorSpec::SlidingWindow {
            n: 24,
            window: 3,
            batches: 8,
            rate: 12,
            seed,
        },
        GeneratorSpec::MinCutAdversary {
            half: 8,
            bridge: 3,
            churn: 16,
            seed,
        },
        GeneratorSpec::SparsifierAdversary {
            n: 16,
            blocks: 2,
            p_in: 0.7,
            p_out: 0.2,
            churn: 10,
            seed,
        },
        GeneratorSpec::WeightChurn {
            n: 20,
            p: 0.3,
            max_weight: 12,
            churn: 14,
            seed,
        },
    ]
}

/// Identical (spec, seed) must give byte-identical trace files, in both
/// the binary and the JSONL encodings; a different seed must not. Both
/// encodings round-trip through `from_any` to the same trace.
#[test]
fn trace_files_are_byte_deterministic() {
    for spec in all_generators(0xFEED) {
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(
            a.to_bytes(),
            b.to_bytes(),
            "{}: binary trace must be replayable byte-for-byte",
            spec.name()
        );
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "{}: jsonl", spec.name());

        let reseeded = spec.with_seed(0xFEED ^ 1).generate();
        assert_ne!(
            a.to_bytes(),
            reseeded.to_bytes(),
            "{}: the seed must matter",
            spec.name()
        );

        let from_bin = Trace::from_any(&a.to_bytes()).expect("binary sniff");
        let from_jsonl = Trace::from_any(a.to_jsonl().as_bytes()).expect("jsonl sniff");
        assert_eq!(from_bin, a, "{}: binary round-trip", spec.name());
        assert_eq!(from_jsonl, a, "{}: jsonl round-trip", spec.name());
    }
}

/// A generator whose traces suit the task: weighted churn for the
/// weighted tasks, a cut adversary for the cut tasks, unit churn
/// elsewhere.
fn generator_for(task: SketchTask, seed: u64) -> GeneratorSpec {
    match task {
        SketchTask::MinCut | SketchTask::KConnect => GeneratorSpec::MinCutAdversary {
            half: 8,
            bridge: 2,
            churn: 12,
            seed,
        },
        SketchTask::SimpleSparsify | SketchTask::Sparsify => GeneratorSpec::SparsifierAdversary {
            n: 16,
            blocks: 2,
            p_in: 0.7,
            p_out: 0.2,
            churn: 8,
            seed,
        },
        SketchTask::WeightedSparsify | SketchTask::Mst => GeneratorSpec::WeightChurn {
            n: 16,
            p: 0.3,
            max_weight: 8,
            churn: 10,
            seed,
        },
        SketchTask::Bipartite => GeneratorSpec::SlidingWindow {
            n: 20,
            window: 3,
            batches: 6,
            rate: 10,
            seed,
        },
        _ => GeneratorSpec::PowerLawChurn {
            n: 24,
            attach: 2,
            churn: 16,
            seed,
        },
    }
}

/// Replaying a trace through the sharded engine (chunked ingest with
/// interleaved flushes) must answer **identically** to absorbing the
/// same updates into a single sketch, for every task in the catalogue.
#[test]
fn trace_replay_through_engine_matches_direct_feed_for_every_task() {
    let plan = DecodePlan::with_threads(2);
    for (i, task) in SketchTask::ALL.into_iter().enumerate() {
        let generator = generator_for(task, 0xBEE5 + i as u64);
        let trace = generator.generate();
        let mut spec = SketchSpec::new(task, trace.n).with_seed(0xD1CE + i as u64);
        if let GeneratorSpec::WeightChurn { max_weight, .. } = generator {
            spec = spec.with_max_weight(max_weight);
        }

        let mut direct = spec.build();
        direct.absorb(&trace.updates);
        let expected = direct.decode_with(&plan);

        let config = EngineConfig::new(3).with_seed(spec.seed ^ ENGINE_SEED_TWEAK);
        let mut engine = SketchEngine::new(config, || spec.build());
        let per = trace.updates.len().div_ceil(4).max(1);
        for chunk in trace.updates.chunks(per) {
            engine.try_ingest(chunk).expect("engine ingests the trace");
            engine.flush();
        }
        let got = engine.answer(&plan);
        assert_eq!(
            got,
            expected,
            "{}: engine replay of a {} trace diverged from direct feed",
            task.command(),
            generator.name()
        );
    }
}

/// A scratch state directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "gs-workloads-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The runner's serve path (tenants on a live server over TCP) must
/// reproduce the engine path's accuracy run for run: same answers, so
/// same error and the same pass/fail verdicts.
#[test]
fn runner_serve_path_agrees_with_engine_path() {
    let tasks = r#"
        {"task":"connectivity","generator":{"PowerLawChurn":{"n":24,"attach":2,"churn":16,"seed":5}},"eps":[0.5],"repeats":2}
        {"task":"mst","generator":{"WeightChurn":{"n":16,"p":0.3,"max_weight":8,"churn":10,"seed":5}},"eps":[0.5],"repeats":2}
    "#;
    let rows = TaskRow::parse_tasks(tasks).expect("tasks parse");

    let mut opts = RunnerOpts {
        base_seed: 77,
        trials: 24,
        ..RunnerOpts::default()
    };
    let engine_report = run_experiment(&rows, &opts).expect("engine path");
    assert!(engine_report.ok(), "engine path meets its guarantees");

    let scratch = Scratch::new("runner");
    let server = Server::start(ServeConfig {
        state_dir: scratch.0.clone(),
        tcp: Some("127.0.0.1:0".into()),
        checkpoint_every: Duration::ZERO,
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("server start");
    opts.server = Some(ServerTarget::Tcp(server.tcp_addr().unwrap().to_string()));
    let serve_report = run_experiment(&rows, &opts).expect("serve path");
    server.shutdown();

    assert!(serve_report.ok(), "serve path meets its guarantees");
    assert_eq!(engine_report.rows.len(), serve_report.rows.len());
    for (e, s) in engine_report.rows.iter().zip(&serve_report.rows) {
        assert_eq!(e.path, "engine");
        assert_eq!(s.path, "serve");
        assert_eq!(e.seed, s.seed, "both paths replay the same trace");
        assert_eq!(e.updates, s.updates);
        assert_eq!(
            (e.err, e.within),
            (s.err, s.within),
            "{} run {}: served answers must score identically",
            e.task,
            e.repeat
        );
        // The engine path decodes its scored query fresh; the serve
        // path's re-query is the tenant memo's one hit.
        assert_eq!((e.cache_hits, e.cache_invalidations), (0, 0));
        assert_eq!(s.cache_hits, 1, "{} run {}", s.task, s.repeat);
    }
}
