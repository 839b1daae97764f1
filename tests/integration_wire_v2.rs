//! Wire format v2 (binary) — cross-format bit-identity and rejection.
//!
//! For **every** [`SketchSpec`] task the full format gauntlet must be
//! bit-exact: sketch → write v1 (JSON) → read → write v2 (binary) → read
//! → decode equals the in-process decode, with the states structurally
//! equal at every hop. And malformed binary files — truncations at every
//! prefix, geometry tampering, bad magic — must be refused with a typed
//! [`WireError`], never mis-loaded.

use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::wire::{v2_checksum, SketchFile, WireError, V2_MAGIC, WIRE_FORMAT_BIN};
use gs_graph::gen;
use gs_sketch::bank::CellBanked;
use gs_sketch::EdgeUpdate;
use gs_stream::distributed::sketch_central;
use gs_stream::GraphStream;

fn churn_updates(n: usize, p: f64, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp(n, p, seed);
    GraphStream::with_churn(&g, 150, seed ^ 0xD1).edge_updates()
}

fn weighted_updates(n: usize, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp_weighted(n, 0.4, 8, seed);
    g.edges()
        .iter()
        .map(|&(u, v, w)| EdgeUpdate::weighted(u, v, w, 1))
        .collect()
}

fn task_updates(task: SketchTask, n: usize, seed: u64) -> Vec<EdgeUpdate> {
    match task {
        SketchTask::WeightedSparsify | SketchTask::Mst => weighted_updates(n, seed),
        _ => churn_updates(n, 0.3, seed),
    }
}

/// Rewrites the trailing checksum after a deliberate in-place edit, so the
/// test reaches the structural validation *behind* the checksum gate.
fn reseal(bytes: &mut [u8]) {
    let split = bytes.len() - 8;
    let sum = v2_checksum(&bytes[..split]);
    bytes[split..].copy_from_slice(&sum.to_le_bytes());
}

fn spec_for(task: SketchTask) -> SketchSpec {
    SketchSpec::new(task, 12)
        .with_eps(0.9)
        .with_max_weight(8)
        .with_seed(0x22E)
}

/// A fed sketch file for one task, plus the central sketch it carries.
fn fed_file(task: SketchTask) -> SketchFile {
    let spec = spec_for(task);
    let updates = task_updates(task, 12, 7);
    let central = sketch_central(&updates, || spec.build());
    SketchFile::new(spec, central).expect("state matches spec")
}

#[test]
fn v1_to_v2_gauntlet_is_bit_exact_for_every_task() {
    for task in SketchTask::ALL {
        let file = fed_file(task);
        let answer = file.decode();

        // v1 JSON hop.
        let v1_text = file.to_json();
        let from_v1 = SketchFile::from_bytes(v1_text.as_bytes()).expect("v1 loads");
        assert_eq!(from_v1.state, file.state, "{task:?}: v1 state drifted");

        // v2 binary hop, written from the v1-loaded file.
        let v2_bytes = from_v1.to_bytes();
        assert!(v2_bytes.starts_with(V2_MAGIC));
        let from_v2 = SketchFile::from_bytes(&v2_bytes).expect("v2 loads");
        assert_eq!(from_v2.spec, file.spec, "{task:?}: spec drifted");
        assert_eq!(from_v2.state, file.state, "{task:?}: v2 state drifted");
        assert_eq!(from_v2.decode(), answer, "{task:?}: answers differ");

        // The binary form re-round-trips to itself byte for byte.
        assert_eq!(from_v2.to_bytes(), v2_bytes, "{task:?}: v2 bytes unstable");
    }
}

#[test]
fn v2_merge_equals_central_for_every_task() {
    for task in SketchTask::ALL {
        let spec = spec_for(task);
        let updates = task_updates(task, 12, 9);
        let central = sketch_central(&updates, || spec.build());
        let mid = updates.len() / 2;
        let mut acc: Option<SketchFile> = None;
        for share in [&updates[..mid], &updates[mid..]] {
            let site = SketchFile::new(spec, sketch_central(share, || spec.build())).unwrap();
            // Ship through the binary format.
            let shipped = SketchFile::from_bytes(&site.to_bytes()).expect("v2 loads");
            match &mut acc {
                None => acc = Some(shipped),
                Some(a) => a.try_merge(&shipped).expect("compatible sites merge"),
            }
        }
        assert_eq!(acc.unwrap().state, central, "{task:?}: v2 merge != central");
    }
}

/// The v2 bytes of [`fed_file`] for every task, as `(length, checksum)`:
/// pinned so any change to what the encoder writes fails here, not only
/// changes a decoder round trip would notice.
const PINNED_V2: [(SketchTask, usize, u64); 10] = [
    (SketchTask::Connectivity, 32372, 0xf8ba_6600_2619_5051),
    (SketchTask::Bipartite, 134525, 0x67d1_3c2c_0c74_628f),
    (SketchTask::MinCut, 1209998, 0x5ea2_82e1_00f2_8500),
    (SketchTask::SimpleSparsify, 1935946, 0xcd54_a2d8_ceb2_16fa),
    (SketchTask::Sparsify, 4118740, 0xa127_8d13_4d83_ef39),
    (
        SketchTask::WeightedSparsify,
        15486828,
        0xfa4a_4dc7_0d3f_b983,
    ),
    (SketchTask::Subgraphs, 33189, 0x63ad_c49f_c6df_7142),
    (SketchTask::Mst, 161435, 0x00b2_dc32_d183_3c83),
    (SketchTask::KConnect, 64636, 0xd3a4_22d6_2dca_a832),
    (SketchTask::KEdgeWitness, 64640, 0xf8ca_e68a_8fcf_f6f8),
];

#[test]
fn v2_bytes_are_pinned_for_every_task() {
    assert_eq!(PINNED_V2.map(|(task, ..)| task), SketchTask::ALL);
    for (task, len, sum) in PINNED_V2 {
        let bytes = fed_file(task).to_bytes();
        let (content, word) = bytes.split_at(bytes.len() - 8);
        assert_eq!(bytes.len(), len, "{task:?}: v2 length moved");
        assert_eq!(v2_checksum(content), sum, "{task:?}: v2 bytes moved");
        assert_eq!(word, sum.to_le_bytes(), "{task:?}: trailing checksum");
    }
}

#[test]
fn write_to_a_file_streams_exactly_the_to_bytes_bytes() {
    let dir = std::env::temp_dir().join(format!("gs-wire-v2-write-to-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for task in SketchTask::ALL {
        let file = fed_file(task);
        let path = dir.join(format!("{task:?}.state"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        file.write_to(&mut out).unwrap();
        drop(out.into_inner().unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), file.to_bytes(), "{task:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v2_is_smaller_than_v1_json() {
    // The point of the binary dump: no JSON inflation of i128 strings and
    // per-cell object syntax. Not a strict contract, but a sanity bound a
    // regression would trip loudly.
    for task in [SketchTask::Connectivity, SketchTask::MinCut] {
        let file = fed_file(task);
        let (v1, v2) = (file.to_json().len(), file.to_bytes().len());
        assert!(v2 < v1, "{task:?}: binary {v2} B >= JSON {v1} B");
    }
}

#[test]
fn truncated_v2_is_rejected_at_every_prefix() {
    let file = fed_file(SketchTask::Connectivity);
    let bytes = file.to_bytes();
    // Every strict prefix long enough to keep the magic must report
    // truncation (or a corrupt count), never load or panic.
    for cut in [
        V2_MAGIC.len(),
        V2_MAGIC.len() + 2,
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        match SketchFile::from_bytes(&bytes[..cut]) {
            Err(WireError::Truncated { .. }) | Err(WireError::Corrupt(_)) => {}
            other => panic!("prefix of {cut} bytes: expected truncation, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_rejected() {
    let file = fed_file(SketchTask::Connectivity);
    let mut bytes = file.to_bytes();
    bytes[0] ^= 0xFF;
    // No longer the v2 magic and not UTF-8 JSON either.
    assert_eq!(SketchFile::from_bytes(&bytes), Err(WireError::BadMagic));
    // Arbitrary non-sketch binary data is refused the same way.
    assert_eq!(
        SketchFile::from_bytes(&[0xFFu8, 0xFE, 0x00, 0x01]),
        Err(WireError::BadMagic)
    );
}

#[test]
fn wrong_v2_version_is_rejected() {
    let file = fed_file(SketchTask::Connectivity);
    let mut bytes = file.to_bytes();
    let at = V2_MAGIC.len();
    bytes[at..at + 4].copy_from_slice(&7u32.to_le_bytes());
    assert_eq!(
        SketchFile::from_bytes(&bytes),
        Err(WireError::Format { found: 7 })
    );
    assert_eq!(WIRE_FORMAT_BIN, 3);
}

#[test]
fn geometry_mismatch_is_rejected() {
    let file = fed_file(SketchTask::Connectivity);
    let bytes = file.to_bytes();
    // Locate the first bank's geometry triple: magic + version + spec.
    let spec_len = u32::from_le_bytes(
        bytes[V2_MAGIC.len() + 4..V2_MAGIC.len() + 8]
            .try_into()
            .unwrap(),
    ) as usize;
    let geom_at = V2_MAGIC.len() + 8 + spec_len + 4;
    let mut tampered = bytes.clone();
    // Double the declared rep count of bank 0 (and re-seal the checksum:
    // the structural gate must catch a deliberate tamperer too).
    let reps = u32::from_le_bytes(tampered[geom_at..geom_at + 4].try_into().unwrap());
    tampered[geom_at..geom_at + 4].copy_from_slice(&(reps * 2).to_le_bytes());
    reseal(&mut tampered);
    match SketchFile::from_bytes(&tampered) {
        Err(WireError::Geometry { bank: 0, .. }) => {}
        other => panic!("expected geometry rejection, got {other:?}"),
    }
}

#[test]
fn out_of_field_fingerprint_is_rejected() {
    let file = fed_file(SketchTask::Connectivity);
    let mut bytes = file.to_bytes();
    // A connectivity file has no fingerprints, so the final content words
    // before the u32 fingerprint count and u64 checksum are f-lane values.
    // Setting the top bits pushes one out of F_{2^61−1}.
    let at = bytes.len() - 8 - 4 - 8; // last f word (fp count, checksum follow)
    bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut bytes);
    match SketchFile::from_bytes(&bytes) {
        Err(WireError::Corrupt(detail)) => {
            assert!(detail.contains("fingerprint"), "unexpected detail {detail}")
        }
        other => panic!("expected corrupt rejection, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let file = fed_file(SketchTask::Bipartite);
    // Appended junk lands after the checksum word: the checksum gate
    // refuses (the declared sum is no longer the last 8 bytes).
    let mut appended = file.to_bytes();
    appended.extend_from_slice(b"junk");
    match SketchFile::from_bytes(&appended) {
        Err(WireError::Corrupt(detail)) => {
            assert!(detail.contains("checksum"), "unexpected detail {detail}")
        }
        other => panic!("expected checksum rejection, got {other:?}"),
    }
    // Junk spliced *before* a re-sealed checksum reaches the structural
    // trailing-byte check instead.
    let mut spliced = file.to_bytes();
    let at = spliced.len() - 8;
    spliced.splice(at..at, b"junk".iter().copied());
    reseal(&mut spliced);
    match SketchFile::from_bytes(&spliced) {
        Err(WireError::Corrupt(detail)) => {
            assert!(detail.contains("trailing"), "unexpected detail {detail}")
        }
        other => panic!("expected trailing-byte rejection, got {other:?}"),
    }
}

#[test]
fn v2_geometry_survives_the_v1_hop() {
    // A sketch loaded from legacy v1 JSON (whose cell arrays carry no
    // geometry) must still write a fully-structured v2 file: the load
    // transplants the state into a spec-built sketch.
    let file = fed_file(SketchTask::KEdgeWitness);
    let fresh_geoms: Vec<_> = file.state.banks().iter().map(|b| b.geometry()).collect();
    let from_v1 = SketchFile::from_bytes(file.to_json().as_bytes()).unwrap();
    let loaded_geoms: Vec<_> = from_v1.state.banks().iter().map(|b| b.geometry()).collect();
    assert_eq!(loaded_geoms, fresh_geoms);
    assert!(fresh_geoms.iter().any(|g| g.reps > 1 || g.levels > 1));
}

#[test]
fn legacy_v1_cell_arrays_still_load() {
    // Pin the v1 serialization of the bank: an array of {w,s,f} cell
    // objects, exactly what Vec<OneSparseCell> wrote before the bank
    // existed. If this shape ever changes, files written by older builds
    // stop loading — fail here first.
    let file = fed_file(SketchTask::Connectivity);
    let text = file.to_json();
    assert!(
        text.contains("\"cells\":[{\"w\":"),
        "v1 cell arrays changed shape"
    );
    let reloaded = SketchFile::from_bytes(text.as_bytes()).unwrap();
    assert_eq!(reloaded.state, file.state);
    assert_eq!(reloaded.decode(), file.decode());
}
