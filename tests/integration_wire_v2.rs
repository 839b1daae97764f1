//! Wire format v2 (binary) — bit-identity and rejection.
//!
//! For **every** [`SketchSpec`] task the encoder's bytes are pinned and
//! shipping through them is bit-exact: sites' files merged at a
//! coordinator equal the central sketch. And malformed files —
//! truncations at every prefix, geometry tampering, bad magic, JSON
//! sketch files of the retired format 1 — must be refused with a typed
//! [`WireError`], never mis-loaded.

use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::wire::{v2_checksum, SketchFile, WireError, V2_MAGIC, WIRE_FORMAT_BIN};
use graph_sketches::AnySketch;
use gs_graph::gen;
use gs_sketch::bank::CellBanked;
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LaneWidth, LinearSketch, Mergeable};
use gs_stream::distributed::sketch_central;

fn churn_updates(n: usize, p: f64, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp(n, p, seed);
    gen::churn_stream(&g, 150, seed ^ 0xD1)
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

/// The v2 encoder before it became dirty-driven: every lane word written
/// one at a time and the checksum folded byte by byte. It reads every
/// cell, so it is the oracle for `write_to`, which writes each clean
/// bitmap word as zeros without reading it.
fn dense_v2_bytes(file: &SketchFile) -> Vec<u8> {
    let mut out = V2_MAGIC.to_vec();
    out.extend_from_slice(&WIRE_FORMAT_BIN.to_le_bytes());
    let spec_json = file.spec.to_json();
    out.extend_from_slice(&(spec_json.len() as u32).to_le_bytes());
    out.extend_from_slice(spec_json.as_bytes());
    let banks = file.state.banks();
    out.extend_from_slice(&(banks.len() as u32).to_le_bytes());
    for bank in banks {
        let geom = bank.geometry();
        for axis in [geom.reps, geom.levels, geom.slots] {
            out.extend_from_slice(&(axis as u32).to_le_bytes());
        }
        let (w, s) = (bank.w_lane(), bank.s_lane());
        for i in 0..bank.len() {
            out.extend_from_slice(&(w.get(i) as i64).to_le_bytes());
        }
        for i in 0..bank.len() {
            out.extend_from_slice(&s.get(i).to_le_bytes());
        }
        for &x in bank.f_lane() {
            out.extend_from_slice(&x.value().to_le_bytes());
        }
    }
    let fps = file.state.fingerprints();
    out.extend_from_slice(&(fps.len() as u32).to_le_bytes());
    for fp in fps {
        out.extend_from_slice(&fp.value().to_le_bytes());
    }
    let mut sum = 0xcbf2_9ce4_8422_2325u64;
    for &b in &out {
        sum = (sum ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// One task's spec (at `n = 8`, to keep the weighted tasks small) and
/// its sketch state after every path that produces state: each leaves a
/// different dirty bitmap over the same kind of lanes.
fn state_paths(task: SketchTask) -> (SketchSpec, Vec<(&'static str, AnySketch)>) {
    let spec = SketchSpec {
        n: 8,
        ..spec_for(task)
    };
    let updates = task_updates(task, 8, 31);
    let (first, second) = updates.split_at(updates.len() / 2);
    let fed = |ups: &[EdgeUpdate]| {
        let mut s = spec.build();
        s.absorb(ups);
        s
    };
    let mut paths = vec![("spec-built", spec.build()), ("fed", fed(&updates))];

    let mut drained = fed(first);
    drained.drain_dirty();
    paths.push(("drained", drained.clone()));
    drained.absorb(second);
    paths.push(("drained, then fed", drained));

    // One update touches a few cells per bank: `add` sums them sparsely.
    let mut sparse = fed(first);
    sparse.merge(&fed(&second[..1]));
    paths.push(("sparse add", sparse));
    let mut dense = fed(first);
    let other = fed(second);
    for (a, b) in dense.banks_mut().into_iter().zip(other.banks()) {
        a.add_dense(b);
    }
    for (a, b) in dense
        .fingerprints_mut()
        .into_iter()
        .zip(other.fingerprints())
    {
        *a += b;
    }
    paths.push(("dense add", dense));

    let mut receiver = SketchFile::new(spec, fed(first)).unwrap();
    let mut sender = SketchFile::new(spec, fed(second)).unwrap();
    receiver.apply_delta(&sender.delta_bytes()).unwrap();
    paths.push(("delta-applied", receiver.state));

    // The served base: each half absorbed by three threads splitting
    // the sketch's rows.
    let mut base = spec.build();
    for half in [first, second] {
        base.absorb_with(half, &DecodePlan::with_threads(3));
    }
    paths.push(("split-absorbed base", base));

    let file = SketchFile::new(spec, fed(&updates)).unwrap();
    let reloaded = SketchFile::from_bytes(&file.to_bytes()).unwrap().state;
    assert!(reloaded.banks().iter().all(|b| b.dirty_count() == b.len()));
    paths.push(("reloaded from v2", reloaded));
    (spec, paths)
}

#[test]
fn dirty_driven_write_to_equals_the_dense_encoder_on_every_state_path() {
    let dir = std::env::temp_dir().join(format!("gs-wire-v2-paths-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let durable = dir.join("state");
    let (mut narrow, mut ragged) = (false, false);
    for task in SketchTask::ALL {
        let (spec, paths) = state_paths(task);
        for (path, state) in paths {
            narrow |= state.banks().iter().any(|b| b.width() != LaneWidth::WIDE);
            ragged |= state.banks().iter().any(|b| b.len() % 64 != 0);
            let mut wide = state.clone();
            for bank in wide.banks_mut() {
                bank.force_wide();
            }
            let file = SketchFile::new(spec, state.clone()).unwrap();
            let expected = dense_v2_bytes(&file);
            assert_eq!(
                file.encoded_len(),
                expected.len() as u64,
                "{task:?}, {path}"
            );
            // The durable path hands zero runs to a sparse file by
            // length; the file must hold the same bytes.
            file.write_durably(&durable).unwrap();
            assert!(
                std::fs::read(&durable).unwrap() == file.to_bytes(),
                "{task:?}, {path}: the durable file differs"
            );
            for state in [state, wide] {
                let file = SketchFile::new(spec, state).unwrap();
                let mut streamed = Vec::new();
                file.write_to(&mut streamed).unwrap();
                assert!(streamed == expected, "{task:?}, {path}: bytes differ");
            }
        }
    }
    assert!(narrow, "a narrow-lane bank was covered");
    assert!(
        ragged,
        "a bank of a length not a multiple of 64 was covered"
    );
    std::fs::remove_dir_all(&dir).unwrap();
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
    // So is a sketch file of the retired JSON format 1, whose error
    // names the format.
    let v1 = include_str!("fixtures/v1_connectivity_n2.json");
    assert!(v1.starts_with("{\"format\":1,"));
    assert_eq!(
        SketchFile::from_bytes(v1.as_bytes()),
        Err(WireError::BadMagic)
    );
    assert!(WireError::BadMagic
        .to_string()
        .contains("JSON sketch files"));
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
