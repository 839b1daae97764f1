//! Cross-process sketch shipping: the versioned sketch-file formats.
//!
//! §1.1's coordinator topology only becomes real once sketches cross a
//! process boundary. Two on-disk formats carry a sketch, auto-detected on
//! load by [`SketchFile::from_bytes`]:
//!
//! **Format 1 (JSON)** — one JSON object:
//!
//! ```json
//! {"format": 1, "spec": { …SketchSpec… }, "state": { …AnySketch… }}
//! ```
//!
//! **Format 2 (binary)** — a length-prefixed little-endian dump of the
//! measurement state. A sketch's *structure* (hashes, seeds, parameters)
//! is fully derivable from its spec, so only the [`gs_sketch::CellBank`]
//! lanes and the `k-RECOVERY` verification fingerprints ship; the reader
//! rebuilds the structure with `spec.build()` and overlays the state,
//! checking each bank's declared `reps × levels × slots` geometry against
//! the spec-built receiver:
//!
//! ```text
//! magic "AGMSKB2\n" · u32 version=3 · u32 spec_len · spec JSON
//! u32 bank_count · per bank: u32×3 geometry, then w (i64), s (i128),
//!                            f (u64 < 2^61−1) lanes, all LE
//! u32 fingerprint_count · fingerprints (u64 LE)
//! u64 FNV-1a checksum of every preceding byte
//! ```
//!
//! **Delta record** — the incremental sibling of format 2, produced by
//! [`SketchFile::delta_bytes`] and consumed by
//! [`SketchFile::apply_delta`]. Instead of whole lanes it ships only the
//! cells **touched since the last drain** (the bank dirty bitmaps of
//! [`gs_sketch::CellBank`]), as `(flat index, w, s, f)` columns per bank,
//! plus every fingerprint scalar (they are single field elements).
//! Emitting a delta *drains* the sender — touched cells and fingerprints
//! are zeroed — so by linearity a coordinator that adds successive deltas
//! holds exactly the sketch of everything the sender ever absorbed:
//!
//! ```text
//! magic "AGMSKD2\n" · u32 version=3 · u32 spec_len · spec JSON
//! u32 bank_count · per bank: u32×3 geometry, u32 touched_count,
//!                            touched flat indices (u32 LE, strictly
//!                            ascending), then w/s/f columns of exactly
//!                            those cells
//! u32 fingerprint_count · fingerprints (u64 LE)
//! u64 FNV-1a checksum of every preceding byte
//! ```
//!
//! Both binary layouts end in an [FNV-1a] checksum ([`v2_checksum`]) over
//! everything before it, verified **before any content is parsed**: a
//! flipped bit, a truncation past the header, or a spliced payload is
//! refused as [`WireError::Corrupt`] without the reader ever acting on
//! the damaged bytes — there is no silent wrong state. The structural
//! validation below the checksum (geometry gates, field-range checks,
//! strict index monotonicity, trailing-byte rejection) still runs, so a
//! *re-sealed* tampered file is caught too wherever the damage is
//! detectable.
//!
//! In all formats the payload carries the full [`SketchSpec`] —
//! everything two sites must agree on for their measurements to be
//! compatible — so the coordinator *checks* compatibility instead of
//! trusting the sender. [`SketchFile::try_merge`] refuses (with a
//! [`WireError`]) to fold files whose specs differ in any field or whose
//! bank geometries disagree, [`SketchFile::apply_delta`] refuses deltas
//! the same way, and loading validates the state against its *declared*
//! spec (v1: a contained probe merge against a spec-built empty sketch,
//! which also re-structures the flat-deserialized banks; v2: the per-bank
//! geometry gate), so a corrupted or tampered file fails at load rather
//! than aborting a coordinator mid-merge. The CLI's
//! `sketch` / `merge` / `decode` / `sync` verbs are thin shells over this
//! module; `tests/integration_wire.rs`, `tests/integration_wire_v2.rs`,
//! `tests/integration_delta.rs`, and `tests/integration_wire_fuzz.rs`
//! assert the round trips are bit-exact and the rejections are typed.
//!
//! [FNV-1a]: https://en.wikipedia.org/wiki/Fowler%E2%80%93Noll%E2%80%93Vo_hash_function

use crate::api::{AnySketch, MergeError, SketchAnswer, SketchSpec, SpecError};
use gs_field::{m61, M61};
use gs_sketch::bank::CellBanked;
use gs_sketch::par::DecodePlan;
use gs_sketch::{BankGeometry, LinearSketch, Mergeable};
use serde::{Deserialize, Serialize, Value};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The JSON sketch-file wire version.
pub const WIRE_FORMAT: u64 = 1;

/// The binary sketch-file wire version, carried in the `u32` after the
/// magic. Version 2 was the pre-checksum binary layout; appending the
/// trailing checksum word changed the byte layout, so the version was
/// bumped to 3 — a version-2 file written by an older build is refused
/// with a [`WireError::Format`] naming both versions, not misread as
/// checksum corruption.
pub const WIRE_FORMAT_BIN: u32 = 3;

/// Magic prefix of a binary (format 2) sketch file. Starts with a byte
/// that can never open a JSON document, so the two formats are sniffable.
pub const V2_MAGIC: &[u8; 8] = b"AGMSKB2\n";

/// Magic prefix of a binary delta record (the incremental sibling of
/// format 2): `D` for delta where the full dump has `B`.
pub const DELTA_MAGIC: &[u8; 8] = b"AGMSKD2\n";

/// The FNV-1a 64-bit offset basis: the checksum state before any byte.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64-bit state.
#[inline]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a 64-bit checksum both binary layouts carry as their final
/// word, computed over every preceding byte. Public so external tools
/// (and the corruption tests) can re-seal a payload they have edited.
pub fn v2_checksum(payload: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, payload)
}

/// A writer that folds every byte it passes on into a running FNV-1a
/// state, so a binary layout can be streamed and then sealed with its
/// [`v2_checksum`] without ever holding the whole payload.
struct Checksummed<W: Write> {
    out: W,
    sum: u64,
}

impl<W: Write> Checksummed<W> {
    fn new(out: W) -> Self {
        Checksummed {
            out,
            sum: FNV_OFFSET,
        }
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sum = fnv1a(self.sum, bytes);
        self.out.write_all(bytes)
    }

    fn put_u32(&mut self, x: u32) -> io::Result<()> {
        self.put(&x.to_le_bytes())
    }

    /// Writes the checksum of everything put so far (the checksum word
    /// itself is not hashed).
    fn seal(mut self) -> io::Result<()> {
        let sum = self.sum;
        self.out.write_all(&sum.to_le_bytes())
    }
}

/// Replaces the file at `path` durably with the bytes `write` emits.
/// The bytes are streamed through a buffer into `staging` (created or
/// truncated), which is fsynced and renamed over `path`; then the
/// directory is fsynced, so the rename itself survives a power loss.
/// Afterwards `path` holds the new bytes on stable storage, and a crash
/// at any earlier point leaves the old file in place. `staging` must
/// sit in the same directory as `path` (`rename(2)` is atomic only
/// there).
///
/// # Errors
/// Any I/O error, with the step and file named. The staging file is
/// removed on every error; `path` is then untouched, unless only the
/// final directory sync failed, in which case the rename has happened
/// but may not yet be durable.
pub fn replace_file_durably(
    path: &Path,
    staging: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let result = stage_and_rename(path, staging, write);
    if result.is_err() {
        let _ = std::fs::remove_file(staging);
    }
    result
}

fn stage_and_rename(
    path: &Path,
    staging: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let step = |what: &str, at: &Path| {
        let what = format!("{what} {}", at.display());
        move |e: io::Error| io::Error::new(e.kind(), format!("{what}: {e}"))
    };
    let mut out = BufWriter::new(File::create(staging).map_err(step("creating", staging))?);
    write(&mut out).map_err(step("writing", staging))?;
    let file = out
        .into_inner()
        .map_err(|e| e.into_error())
        .map_err(step("writing", staging))?;
    file.sync_all().map_err(step("syncing", staging))?;
    drop(file);
    std::fs::rename(staging, path).map_err(step("renaming over", path))?;
    sync_parent_dir(path).map_err(step("syncing the directory of", path))
}

/// Fsyncs the directory holding `path`, making a rename into it durable.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Directories cannot be opened for fsync off Unix; the rename there is
/// as durable as the platform makes it.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// Appends the [`v2_checksum`] of everything written so far.
fn seal(out: &mut Vec<u8>) {
    let sum = v2_checksum(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Reads the `u32` wire version that follows an 8-byte magic and rejects
/// anything but [`WIRE_FORMAT_BIN`] (the version is checked before the
/// checksum so a future-format file reports [`WireError::Format`], not a
/// hash mismatch).
fn check_version(bytes: &[u8]) -> Result<(), WireError> {
    let at = V2_MAGIC.len();
    let word = bytes
        .get(at..at + 4)
        .and_then(|w| <[u8; 4]>::try_from(w).ok())
        .ok_or(WireError::Truncated { at: bytes.len() })?;
    let version = u32::from_le_bytes(word);
    if version != WIRE_FORMAT_BIN {
        return Err(WireError::Format {
            found: version as u64,
        });
    }
    Ok(())
}

/// Parses the prologue shared by both binary layouts: the expected magic
/// ([`WireError::BadMagic`] otherwise), the version word, the trailing
/// checksum (verified before any content is read), then the spec header.
/// Returns the spec and a reader positioned at the first byte after it.
fn parse_binary_header<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
) -> Result<(SketchSpec, ByteReader<'a>), WireError> {
    if !bytes.starts_with(magic) {
        return Err(WireError::BadMagic);
    }
    check_version(bytes)?;
    let mut r = ByteReader::new(checked_content(bytes)?);
    let spec_len = r.u32()? as usize;
    let spec_text = std::str::from_utf8(r.take(spec_len)?)
        .map_err(|_| WireError::Corrupt("spec header is not UTF-8".into()))?;
    let spec = SketchSpec::from_json(spec_text).map_err(|e| WireError::Json(e.to_string()))?;
    Ok((spec, r))
}

/// Verifies the trailing checksum of a binary payload (full or delta) and
/// returns the content slice between the `magic · u32 version` header and
/// the checksum word. Runs before any content is parsed.
fn checked_content(bytes: &[u8]) -> Result<&[u8], WireError> {
    let header = V2_MAGIC.len() + 4;
    if bytes.len() < header + 8 {
        return Err(WireError::Truncated { at: bytes.len() });
    }
    let (hashed, tail) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(
        tail.try_into()
            .map_err(|_| WireError::Truncated { at: bytes.len() })?,
    );
    let computed = v2_checksum(hashed);
    if declared != computed {
        return Err(WireError::Corrupt(format!(
            "checksum mismatch: file declares {declared:#018x}, contents hash to \
             {computed:#018x}"
        )));
    }
    hashed
        .get(header..)
        .ok_or(WireError::Truncated { at: bytes.len() })
}

/// A sketch and the spec it was built from, as shipped between processes.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchFile {
    /// The recipe both ends must agree on.
    pub spec: SketchSpec,
    /// The sketch state (the linear measurement).
    pub state: AnySketch,
}

/// Why a sketch file failed to load or merge.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The text is not valid JSON (or not the expected shape).
    Json(String),
    /// A required top-level field is missing or mistyped.
    Missing(&'static str),
    /// The file declares an unsupported wire version.
    Format {
        /// The version the file declared.
        found: u64,
    },
    /// The bytes are neither a binary sketch file (no recognizable magic)
    /// nor JSON text.
    BadMagic,
    /// A binary file ended before its declared contents.
    Truncated {
        /// Byte offset at which the reader ran out of input.
        at: usize,
    },
    /// A binary file's bank geometry disagrees with the spec-built sketch.
    Geometry {
        /// Zero-based index of the offending bank.
        bank: usize,
        /// Geometry declared in the file.
        declared: BankGeometry,
        /// Geometry the spec builds.
        expected: BankGeometry,
    },
    /// A binary file is structurally well-formed but carries impossible
    /// content (bad counts, out-of-field fingerprints, trailing bytes).
    Corrupt(String),
    /// The declared spec violates its task's constructor invariants or
    /// the documented plausibility floors of [`SketchSpec::validate`] (a
    /// degenerate or hostile header, refused before anything is built).
    /// The floors are deliberately part of the wire contract: an extreme
    /// but technically-constructible spec (`ε` near zero, astronomically
    /// large `k` or weights) is indistinguishable from an
    /// allocation-exhaustion attack at load time.
    Spec(SpecError),
    /// The embedded state does not match the embedded spec (task or `n`).
    StateMismatch,
    /// Two files with different specs refused to merge.
    SpecMismatch {
        /// Spec of the file merged into.
        left: Box<SketchSpec>,
        /// Spec of the file merged from.
        right: Box<SketchSpec>,
    },
    /// The states themselves refused to merge.
    Merge(MergeError),
    /// A file or delta carries a cell value outside the receiving bank's
    /// spec-derived lane range (the lane-compaction bound of
    /// `LaneWidth::for_bounds`). The wire always ships `s` as 16-byte
    /// words; a narrow bank range-checks them on import and refuses the
    /// whole record rather than wrapping silently.
    LaneRange {
        /// Zero-based index of the offending bank.
        bank: usize,
        /// Flat cell index of the first out-of-range value, when known.
        cell: Option<usize>,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "malformed sketch file: {e}"),
            WireError::Missing(field) => write!(f, "sketch file is missing {field:?}"),
            WireError::Format { found } => write!(
                f,
                "sketch file declares wire format {found}, this build reads formats \
                 {WIRE_FORMAT} and {WIRE_FORMAT_BIN}"
            ),
            WireError::BadMagic => write!(
                f,
                "not a sketch file: neither the binary magic nor JSON text"
            ),
            WireError::Truncated { at } => {
                write!(f, "binary sketch file truncated at byte {at}")
            }
            WireError::Geometry {
                bank,
                declared,
                expected,
            } => write!(
                f,
                "bank {bank} declares geometry {}x{}x{} but the spec builds {}x{}x{}",
                declared.reps,
                declared.levels,
                declared.slots,
                expected.reps,
                expected.levels,
                expected.slots
            ),
            WireError::Corrupt(detail) => write!(f, "corrupt binary sketch file: {detail}"),
            WireError::Spec(e) => {
                write!(
                    f,
                    "sketch file spec refused (outside this build's accepted ranges): {e}"
                )
            }
            WireError::StateMismatch => {
                write!(f, "sketch state does not match the file's spec")
            }
            WireError::SpecMismatch { left, right } => write!(
                f,
                "sketch specs differ (left {left:?}, right {right:?}); only sketches built \
                 from identical specs measure the same projection"
            ),
            WireError::Merge(e) => write!(f, "{e}"),
            WireError::LaneRange { bank, cell } => match cell {
                Some(cell) => write!(
                    f,
                    "bank {bank} cell {cell} carries a value outside the receiving \
                     sketch's compacted lane range"
                ),
                None => write!(
                    f,
                    "bank {bank} carries a value outside the receiving sketch's \
                     compacted lane range"
                ),
            },
        }
    }
}

impl std::error::Error for WireError {}

impl From<MergeError> for WireError {
    fn from(e: MergeError) -> Self {
        WireError::Merge(e)
    }
}

impl From<SpecError> for WireError {
    fn from(e: SpecError) -> Self {
        WireError::Spec(e)
    }
}

/// Merges `state` into a freshly spec-built empty sketch and returns the
/// result, or `None` if the merge refuses. The per-sketch merge assertions
/// (seeds, parameters, cell counts) are the source of truth for
/// compatibility, so a file whose declared spec was tampered with — e.g.
/// its seed edited to match a merge partner — is caught at load time
/// instead of aborting a coordinator later. Because an empty sketch is the
/// zero of the merge group, the returned sketch carries exactly the
/// state's measurements **in the spec-built structure** — this is also
/// what re-attaches the `reps × levels × slots` bank geometry that the
/// legacy JSON cell arrays do not record. The probe is contained with
/// `catch_unwind` (the sketches expose no fallible compatibility API, so
/// the asserting merge is the only generic oracle) and requires the
/// default unwinding panic runtime — under `panic = "abort"` a corrupted
/// state aborts the load instead of returning an error.
fn rebuild_from_spec(spec: &SketchSpec, state: &AnySketch) -> Option<AnySketch> {
    contained(|| {
        let mut probe = spec.build();
        probe.merge(state);
        probe
    })
}

/// Runs `f`, converting a panic into `None`. Loading untrusted files is
/// the one place a panic is an *expected* failure mode (the sketch
/// constructors and merges assert rather than return errors), so the
/// global panic hook is silenced for the call's duration — a rejection
/// yields one clean [`WireError`], not a panic report. The gate serializes
/// concurrent loads; an unrelated panic elsewhere in the process during
/// this window loses only its hook output, not its unwind. Requires the
/// default unwinding panic runtime — under `panic = "abort"` a corrupted
/// file aborts the load instead of returning an error.
fn contained<R>(f: impl FnOnce() -> R) -> Option<R> {
    use std::panic;
    use std::sync::Mutex;
    static HOOK_GATE: Mutex<()> = Mutex::new(());
    let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = panic::catch_unwind(panic::AssertUnwindSafe(f)).ok();
    panic::set_hook(prev);
    out
}

impl SketchFile {
    /// Packages a sketch with its spec, checking that the state really is
    /// what the spec describes (same task, same `n`). Deep seed/parameter
    /// consistency is probed at the untrusted boundary,
    /// [`SketchFile::from_json`], not here — `new` is the trusted path for
    /// states the caller just built from `spec`.
    pub fn new(spec: SketchSpec, state: AnySketch) -> Result<Self, WireError> {
        if state.task() != spec.task || LinearSketch::n(&state) != spec.n {
            return Err(WireError::StateMismatch);
        }
        Ok(SketchFile { spec, state })
    }

    /// Serializes the file as one JSON object (`format` / `spec` /
    /// `state`).
    pub fn to_json(&self) -> String {
        Value::Map(vec![
            ("format".into(), Value::UInt(WIRE_FORMAT)),
            ("spec".into(), self.spec.to_value()),
            ("state".into(), self.state.to_value()),
        ])
        .to_json()
    }

    /// Parses and validates a sketch file: JSON shape, wire version, spec,
    /// state, and spec↔state consistency. The returned state is the
    /// declared measurements transplanted into a spec-built sketch, so its
    /// bank geometry is fully structured regardless of the serialized
    /// form.
    pub fn from_json(text: &str) -> Result<Self, WireError> {
        let v = Value::from_json(text).map_err(|e| WireError::Json(e.to_string()))?;
        let format = v
            .get("format")
            .and_then(Value::as_u64)
            .ok_or(WireError::Missing("format"))?;
        if format != WIRE_FORMAT {
            return Err(WireError::Format { found: format });
        }
        let spec = SketchSpec::from_value(v.get("spec").ok_or(WireError::Missing("spec"))?)
            .map_err(|e| WireError::Json(e.to_string()))?;
        // Untrusted header: a degenerate spec is refused with a typed
        // error before the probe merge builds anything from it.
        spec.validate()?;
        let state = AnySketch::from_value(v.get("state").ok_or(WireError::Missing("state"))?)
            .map_err(|e| WireError::Json(e.to_string()))?;
        let file = SketchFile::new(spec, state)?;
        // Untrusted input: verify the state really measures the projection
        // the file *declares* before any coordinator merges it, and keep
        // the spec-built rebuild (same measurements, structured geometry).
        let rebuilt = rebuild_from_spec(&file.spec, &file.state).ok_or(WireError::StateMismatch)?;
        // The rebuild merges the declared values into the spec-built
        // sketch; a value outside a compacted lane's range poisons the
        // receiving bank there, which surfaces here as a typed refusal
        // (the JSON format predates lane compaction, so this is the only
        // place the legacy path can range-check).
        if let Some((bank, e)) = rebuilt
            .banks()
            .iter()
            .enumerate()
            .find_map(|(i, b)| b.lane_overflow().map(|e| (i, e)))
        {
            return Err(WireError::LaneRange { bank, cell: e.cell });
        }
        Ok(SketchFile {
            spec: file.spec,
            state: rebuilt,
        })
    }

    /// Serializes the file in the binary wire format (v2): the spec
    /// header, then the raw bank lanes and fingerprints, little-endian.
    /// Collects in memory exactly the bytes [`SketchFile::write_to`]
    /// streams.
    ///
    /// # Panics
    /// Panics if a bank holds more than `u32::MAX` cells, which the
    /// format cannot size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Err(e) = self.write_to(&mut out) {
            // A `Vec` sink never fails, so this is the bank-size bound.
            // gs-lint: allow(no-panic-paths, "encode-side bound on this process's own bank geometry; no wire bytes are parsed here")
            panic!("{e}");
        }
        out
    }

    /// Streams the file in the binary wire format (v2) into `out`,
    /// byte for byte what [`SketchFile::to_bytes`] returns. The trailing
    /// checksum is folded from a running state as the bytes pass, so no
    /// whole-file buffer is built; the lanes go out one word per write,
    /// so hand a file or socket over in a [`BufWriter`].
    ///
    /// # Errors
    /// Any error `out` reports, and [`io::ErrorKind::InvalidInput`] for
    /// a bank of more than `u32::MAX` cells, which the format cannot size
    /// (a prefix of the file has been written by then).
    pub fn write_to(&self, out: impl Write) -> io::Result<()> {
        let mut out = Checksummed::new(out);
        out.put(V2_MAGIC)?;
        out.put_u32(WIRE_FORMAT_BIN)?;
        let spec_json = self.spec.to_json();
        out.put_u32(spec_json.len() as u32)?;
        out.put(spec_json.as_bytes())?;
        let banks = self.state.banks();
        out.put_u32(banks.len() as u32)?;
        for bank in banks {
            // Geometry axes ride as u32 (same invariant delta_bytes
            // guards): a larger bank would truncate silently into a
            // checksum-valid but unloadable file, so refuse it.
            if bank.len() > u32::MAX as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "the binary format sizes banks as u32, bank holds {} cells",
                        bank.len()
                    ),
                ));
            }
            let geom = bank.geometry();
            out.put_u32(geom.reps as u32)?;
            out.put_u32(geom.levels as u32)?;
            out.put_u32(geom.slots as u32)?;
            for &x in bank.w_lane() {
                out.put(&x.to_le_bytes())?;
            }
            // The wire always ships `s` as 16-byte words: a narrow
            // (i64-lane) bank widens here, so compaction never leaks
            // into the format and old readers stay byte-compatible.
            let s = bank.s_lane();
            for i in 0..bank.len() {
                out.put(&s.get(i).to_le_bytes())?;
            }
            for &x in bank.f_lane() {
                out.put(&x.value().to_le_bytes())?;
            }
        }
        let fps = self.state.fingerprints();
        out.put_u32(fps.len() as u32)?;
        for fp in fps {
            out.put(&fp.value().to_le_bytes())?;
        }
        out.seal()
    }

    /// Parses a binary (v2) sketch file: magic, version, the trailing
    /// checksum (verified before anything else is read), then the spec
    /// header and the bank lanes overlaid onto a spec-built sketch with
    /// per-bank geometry checks.
    pub fn from_bytes_v2(bytes: &[u8]) -> Result<Self, WireError> {
        let (spec, mut r) = parse_binary_header(bytes, V2_MAGIC)?;
        // Untrusted header: refuse degenerate specs with a typed error,
        // and contain the build (the constructors assert) for anything
        // validation cannot express.
        spec.validate()?;
        let mut state = contained(|| spec.build()).ok_or_else(|| {
            WireError::Corrupt("spec header describes an unconstructible sketch".into())
        })?;
        let mut banks = state.banks_mut();
        let declared_banks = r.u32()? as usize;
        if declared_banks != banks.len() {
            return Err(WireError::Corrupt(format!(
                "file declares {declared_banks} banks, the spec builds {}",
                banks.len()
            )));
        }
        for (i, bank) in banks.iter_mut().enumerate() {
            let declared = BankGeometry {
                reps: r.u32()? as usize,
                levels: r.u32()? as usize,
                slots: r.u32()? as usize,
            };
            let expected = bank.geometry();
            if declared != expected {
                return Err(WireError::Geometry {
                    bank: i,
                    declared,
                    expected,
                });
            }
            // Capacity is capped by what the file can physically still
            // carry (the delta reader's rule): a hostile or truncated
            // header must not force an allocation the payload never
            // backs — the reads below fail with `Truncated` first.
            let len = declared.len();
            let mut w = Vec::with_capacity(len.min(r.remaining() / 8 + 1));
            for _ in 0..len {
                w.push(i64::from_le_bytes(r.array::<8>()?));
            }
            let mut s = Vec::with_capacity(len.min(r.remaining() / 16 + 1));
            for _ in 0..len {
                s.push(i128::from_le_bytes(r.array::<16>()?));
            }
            let mut f = Vec::with_capacity(len.min(r.remaining() / 8 + 1));
            for _ in 0..len {
                f.push(read_m61(&mut r)?);
            }
            // A compacted (narrow-lane) bank range-checks the widened
            // wire words before accepting any of them: a value outside
            // the lane's derived bound means the file was produced for a
            // different spec (or tampered with), so refuse with a typed
            // error instead of wrapping silently.
            bank.try_overlay(w, s, f)
                .map_err(|e| WireError::LaneRange {
                    bank: i,
                    cell: e.cell,
                })?;
        }
        let declared_fps = r.u32()? as usize;
        let mut fps = state.fingerprints_mut();
        if declared_fps != fps.len() {
            return Err(WireError::Corrupt(format!(
                "file declares {declared_fps} fingerprints, the spec builds {}",
                fps.len()
            )));
        }
        for fp in fps.iter_mut() {
            **fp = read_m61(&mut r)?;
        }
        if !r.is_done() {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after the sketch state",
                r.remaining()
            )));
        }
        SketchFile::new(spec, state)
    }

    /// Loads a sketch file of either wire format, auto-detected by
    /// content: the binary magic selects format 2, anything else is
    /// treated as format-1 JSON text. A delta record is *not* a sketch
    /// file (it is one summand, not a sum) and is named in its rejection.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.starts_with(V2_MAGIC) {
            return Self::from_bytes_v2(bytes);
        }
        if bytes.starts_with(DELTA_MAGIC) {
            return Err(WireError::Corrupt(
                "this is a delta record, not a standalone sketch file; apply it to a \
                 coordinator state (CLI: the sync verb)"
                    .into(),
            ));
        }
        let text = std::str::from_utf8(bytes).map_err(|_| WireError::BadMagic)?;
        Self::from_json(text)
    }

    /// Serializes and **drains** the sketch's pending delta: a
    /// [`DELTA_MAGIC`] record carrying only the cells touched since the
    /// last drain (see the module docs for the layout) plus every
    /// fingerprint scalar, then zeroes exactly what it shipped. Repeated
    /// calls therefore emit consecutive, disjoint-in-time deltas whose sum
    /// at a coordinator ([`SketchFile::apply_delta`]) reconstructs the
    /// full sketch bit for bit — the linearity law on the delta path. A
    /// call with nothing pending emits a valid empty delta.
    pub fn delta_bytes(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(DELTA_MAGIC);
        write_u32(&mut out, WIRE_FORMAT_BIN);
        let spec_json = self.spec.to_json();
        write_u32(&mut out, spec_json.len() as u32);
        out.extend_from_slice(spec_json.as_bytes());
        let banks = self.state.banks();
        write_u32(&mut out, banks.len() as u32);
        for bank in banks {
            // Cell indices (and hence the touched count and every
            // geometry axis) ride as u32; a larger bank would silently
            // alias indices, so refuse loudly instead.
            // gs-lint: allow(no-panic-paths, "encode-side bound on this process's own bank geometry; no wire bytes are parsed here")
            assert!(
                bank.len() <= u32::MAX as usize,
                "a delta record indexes cells as u32, bank holds {} cells",
                bank.len()
            );
            let geom = bank.geometry();
            write_u32(&mut out, geom.reps as u32);
            write_u32(&mut out, geom.levels as u32);
            write_u32(&mut out, geom.slots as u32);
            let touched = bank.dirty_indices();
            write_u32(&mut out, touched.len() as u32);
            for &i in &touched {
                write_u32(&mut out, i as u32);
            }
            let (w, f) = (bank.w_lane(), bank.f_lane());
            let s = bank.s_lane();
            for &i in &touched {
                // gs-lint: allow(no-panic-paths, "encode-side: dirty_indices() yields in-bounds cells of this process's own bank, not wire input")
                out.extend_from_slice(&w[i].to_le_bytes());
            }
            // Same rule as `to_bytes`: `s` rides as 16-byte words, so a
            // narrow bank widens on the way out.
            for &i in &touched {
                out.extend_from_slice(&s.get(i).to_le_bytes());
            }
            for &i in &touched {
                // gs-lint: allow(no-panic-paths, "encode-side: dirty_indices() yields in-bounds cells of this process's own bank, not wire input")
                out.extend_from_slice(&f[i].value().to_le_bytes());
            }
        }
        let fps = self.state.fingerprints();
        write_u32(&mut out, fps.len() as u32);
        for fp in fps {
            out.extend_from_slice(&fp.value().to_le_bytes());
        }
        seal(&mut out);
        self.state.drain_dirty();
        out
    }

    /// Parses and fully validates a delta record, then adds it into this
    /// file's state. Nothing is mutated unless the whole record is valid
    /// and compatible: the spec must equal this file's spec in every
    /// field ([`WireError::SpecMismatch`] otherwise) and the record's
    /// bank geometries must match the state's
    /// ([`WireError::Geometry`]), so a delta can never be summed into a
    /// sketch measuring a different projection.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.apply_delta_parsed(&SketchDelta::from_bytes(bytes)?)
    }

    /// [`SketchFile::apply_delta`] for an already-parsed record (callers
    /// that inspect the delta first — the CLI `sync` verb reports its
    /// touched-cell counts — avoid parsing twice).
    pub fn apply_delta_parsed(&mut self, delta: &SketchDelta) -> Result<(), WireError> {
        if delta.spec != self.spec {
            return Err(WireError::SpecMismatch {
                left: Box::new(self.spec),
                right: Box::new(delta.spec),
            });
        }
        {
            let banks = self.state.banks();
            if delta.banks.len() != banks.len() {
                return Err(WireError::Corrupt(format!(
                    "delta carries {} banks, the receiving sketch has {}",
                    delta.banks.len(),
                    banks.len()
                )));
            }
            for (i, (bank, part)) in banks.iter().zip(&delta.banks).enumerate() {
                if bank.geometry() != part.geom {
                    return Err(WireError::Geometry {
                        bank: i,
                        declared: part.geom,
                        expected: bank.geometry(),
                    });
                }
            }
            let fp_count = self.state.fingerprints().len();
            if delta.fingerprints.len() != fp_count {
                return Err(WireError::Corrupt(format!(
                    "delta carries {} fingerprints, the receiving sketch has {fp_count}",
                    delta.fingerprints.len()
                )));
            }
        }
        // First pass: dry-run every touched cell against the receiving
        // bank's lane width. Delta indices are strictly ascending per
        // bank, so each cell is touched exactly once and the dry-run is
        // exact — the record is accepted or refused as a whole, nothing
        // is mutated on refusal.
        {
            let banks = self.state.banks();
            for (bi, (bank, part)) in banks.iter().zip(&delta.banks).enumerate() {
                for (k, &i) in part.idx.iter().enumerate() {
                    // gs-lint: allow(no-panic-paths, "the delta parser builds idx/w/s/f with exactly `touched` elements each, so k < idx.len() indexes all four in bounds")
                    bank.check_apply(i as usize, part.w[k], part.s[k])
                        .map_err(|e| WireError::LaneRange {
                            bank: bi,
                            cell: e.cell,
                        })?;
                }
            }
        }
        // Fully validated: the sum below cannot fail half-way.
        for (bank, part) in self.state.banks_mut().iter_mut().zip(&delta.banks) {
            for (k, &i) in part.idx.iter().enumerate() {
                // gs-lint: allow(no-panic-paths, "the delta parser builds idx/w/s/f with exactly `touched` elements each, so k < idx.len() indexes all four in bounds")
                bank.apply(i as usize, part.w[k], part.s[k], part.f[k]);
            }
        }
        for (fp, df) in self
            .state
            .fingerprints_mut()
            .into_iter()
            .zip(&delta.fingerprints)
        {
            *fp += *df;
        }
        Ok(())
    }

    /// Folds another site's sketch file into this one. Refuses unless the
    /// specs are identical in every field — the precondition under which
    /// the state merge is infallible and exact — and the bank geometries
    /// agree (they always do for equal specs; the check pins the v2
    /// contract).
    pub fn try_merge(&mut self, other: &SketchFile) -> Result<(), WireError> {
        if self.spec != other.spec {
            return Err(WireError::SpecMismatch {
                left: Box::new(self.spec),
                right: Box::new(other.spec),
            });
        }
        for (i, (a, b)) in self
            .state
            .banks()
            .iter()
            .zip(other.state.banks())
            .enumerate()
        {
            if a.geometry() != b.geometry() {
                return Err(WireError::Geometry {
                    bank: i,
                    declared: b.geometry(),
                    expected: a.geometry(),
                });
            }
        }
        self.state.try_merge(&other.state)?;
        Ok(())
    }

    /// Decodes the carried sketch.
    pub fn decode(&self) -> SketchAnswer {
        self.state.decode()
    }

    /// Decodes the carried sketch under a [`DecodePlan`] (bit-identical
    /// to [`SketchFile::decode`] at every thread count).
    pub fn decode_with(&self, plan: &DecodePlan) -> SketchAnswer {
        self.state.decode_with(plan)
    }
}

/// One bank's share of a parsed delta record: the declared geometry and
/// the touched cells' flat indices (strictly ascending) with their
/// measurement columns.
#[derive(Clone, Debug, PartialEq)]
struct DeltaBank {
    geom: BankGeometry,
    idx: Vec<u32>,
    w: Vec<i64>,
    s: Vec<i128>,
    f: Vec<M61>,
}

/// A parsed, internally-validated delta record: the sender's spec plus the
/// sparse per-bank cell columns and fingerprint scalars emitted by
/// [`SketchFile::delta_bytes`]. Parsing checks the checksum **first**, then
/// every structural invariant (ascending in-range indices, in-field values,
/// exact length); compatibility with a *receiver* is checked by
/// [`SketchFile::apply_delta`], which is the only way to consume one.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchDelta {
    spec: SketchSpec,
    banks: Vec<DeltaBank>,
    fingerprints: Vec<M61>,
}

impl SketchDelta {
    /// Parses and validates a delta record (see the module docs for the
    /// layout). Rejections are typed: [`WireError::BadMagic`] for the
    /// wrong magic (including a full v2 file), [`WireError::Format`],
    /// [`WireError::Truncated`], and [`WireError::Corrupt`] for checksum,
    /// range, ordering, or length violations.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let (spec, mut r) = parse_binary_header(bytes, DELTA_MAGIC)?;
        let bank_count = r.u32()? as usize;
        let mut banks = Vec::with_capacity(bank_count.min(r.remaining() / 16 + 1));
        for b in 0..bank_count {
            let geom = BankGeometry {
                reps: r.u32()? as usize,
                levels: r.u32()? as usize,
                slots: r.u32()? as usize,
            };
            // Cell count in u64 so an absurd header cannot overflow usize
            // arithmetic before it is range-checked.
            let cells = (geom.reps as u64)
                .checked_mul(geom.levels as u64)
                .and_then(|x| x.checked_mul(geom.slots as u64))
                .ok_or_else(|| {
                    WireError::Corrupt(format!("bank {b} declares an impossible geometry"))
                })?;
            let touched = r.u32()? as usize;
            if touched as u64 > cells {
                return Err(WireError::Corrupt(format!(
                    "bank {b} declares {touched} touched cells of {cells}"
                )));
            }
            let mut idx = Vec::with_capacity(touched.min(r.remaining() / 4 + 1));
            for k in 0..touched {
                let i = r.u32()?;
                if i as u64 >= cells {
                    return Err(WireError::Corrupt(format!(
                        "bank {b} touches cell {i}, past its {cells} cells"
                    )));
                }
                if let Some(&prev) = idx.last() {
                    if i <= prev {
                        return Err(WireError::Corrupt(format!(
                            "bank {b} touched-index {k} ({i}) is not strictly \
                             ascending after {prev}"
                        )));
                    }
                }
                idx.push(i);
            }
            let mut w = Vec::with_capacity(touched.min(r.remaining() / 8 + 1));
            for _ in 0..touched {
                w.push(i64::from_le_bytes(r.array::<8>()?));
            }
            let mut s = Vec::with_capacity(touched.min(r.remaining() / 16 + 1));
            for _ in 0..touched {
                s.push(i128::from_le_bytes(r.array::<16>()?));
            }
            let mut f = Vec::with_capacity(touched.min(r.remaining() / 8 + 1));
            for _ in 0..touched {
                f.push(read_m61(&mut r)?);
            }
            banks.push(DeltaBank { geom, idx, w, s, f });
        }
        let fp_count = r.u32()? as usize;
        let mut fingerprints = Vec::with_capacity(fp_count.min(r.remaining() / 8 + 1));
        for _ in 0..fp_count {
            fingerprints.push(read_m61(&mut r)?);
        }
        if !r.is_done() {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after the delta record",
                r.remaining()
            )));
        }
        Ok(SketchDelta {
            spec,
            banks,
            fingerprints,
        })
    }

    /// The spec the sending site sketched under (a coordinator can
    /// bootstrap its empty state from the first delta it receives).
    pub fn spec(&self) -> SketchSpec {
        self.spec
    }

    /// Builds the empty receiving [`SketchFile`] this delta's spec
    /// describes — the coordinator bootstrap for the first delta it ever
    /// receives. Parsing never builds the spec, so it is still untrusted
    /// here: the build is contained exactly like the v2 load path, and a
    /// checksum-valid record whose spec header describes an
    /// unconstructible sketch (the constructors assert on out-of-range
    /// parameters) is a typed error, never a panic.
    pub fn empty_file(&self) -> Result<SketchFile, WireError> {
        let spec = self.spec;
        spec.validate()?;
        let state = contained(|| spec.build()).ok_or_else(|| {
            WireError::Corrupt("spec header describes an unconstructible sketch".into())
        })?;
        Ok(SketchFile { spec, state })
    }

    /// Total touched cells shipped across every bank.
    pub fn touched_cells(&self) -> usize {
        self.banks.iter().map(|b| b.idx.len()).sum()
    }

    /// `true` iff the record ships no cells and only zero fingerprints —
    /// the delta of a sender that absorbed nothing since its last drain.
    pub fn is_empty(&self) -> bool {
        self.touched_cells() == 0 && self.fingerprints.iter().all(|f| f.is_zero())
    }
}

/// Appends a little-endian u32.
fn write_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Reads one fingerprint, rejecting out-of-field values (a uniform random
/// or corrupted word is ≥ p with probability 3/4, so this also catches
/// most bit rot in the f lane).
fn read_m61(r: &mut ByteReader<'_>) -> Result<M61, WireError> {
    let raw = u64::from_le_bytes(r.array::<8>()?);
    if raw >= m61::P {
        return Err(WireError::Corrupt(format!(
            "fingerprint value {raw} outside F_(2^61-1)"
        )));
    }
    Ok(M61::new(raw))
}

/// A bounds-checked little-endian cursor over a byte slice.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(WireError::Truncated { at: self.pos })?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(WireError::Truncated { at: self.pos })?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?
            .try_into()
            .map_err(|_| WireError::Truncated { at: self.pos })
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SketchTask;
    use gs_sketch::EdgeUpdate;

    fn fed(spec: &SketchSpec, ups: &[EdgeUpdate]) -> AnySketch {
        let mut s = spec.build();
        s.absorb(ups);
        s
    }

    /// Rewrites the trailing checksum after a deliberate in-place edit, so
    /// a test exercises the *structural* validation behind the checksum
    /// gate (a tamperer who re-seals is exactly who that layer is for).
    fn reseal(bytes: &mut [u8]) {
        let split = bytes.len() - 8;
        let sum = v2_checksum(&bytes[..split]);
        bytes[split..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn file_round_trips_bit_for_bit() {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(3);
        let state = fed(&spec, &[EdgeUpdate::insert(0, 1), EdgeUpdate::insert(2, 3)]);
        let file = SketchFile::new(spec, state).unwrap();
        let back = SketchFile::from_json(&file.to_json()).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn wrong_format_version_is_rejected() {
        let spec = SketchSpec::new(SketchTask::Bipartite, 4);
        let file = SketchFile::new(spec, spec.build()).unwrap();
        let bumped = file.to_json().replacen("\"format\":1", "\"format\":2", 1);
        assert_eq!(
            SketchFile::from_json(&bumped),
            Err(WireError::Format { found: 2 })
        );
    }

    #[test]
    fn missing_fields_are_named() {
        assert_eq!(
            SketchFile::from_json("{}"),
            Err(WireError::Missing("format"))
        );
        assert_eq!(
            SketchFile::from_json("{\"format\":1}"),
            Err(WireError::Missing("spec"))
        );
        assert!(SketchFile::from_json("not json").is_err());
    }

    #[test]
    fn tampered_spec_seed_is_caught_at_load() {
        // Editing a file's declared seed to match a merge partner must not
        // smuggle an incompatible state past the spec check into the
        // panicking inner merge: load validates state against spec.
        let spec = SketchSpec::new(SketchTask::Connectivity, 6).with_seed(8);
        let file = SketchFile::new(spec, spec.build()).unwrap();
        let tampered = file.to_json().replacen("\"seed\":8", "\"seed\":7", 1);
        assert!(tampered.contains("\"seed\":7"), "spec seed was rewritten");
        assert_eq!(
            SketchFile::from_json(&tampered),
            Err(WireError::StateMismatch)
        );
    }

    #[test]
    fn absurd_state_dimensions_fail_without_allocating() {
        // A tiny corrupt v1 file whose *state* declares a huge n must be
        // rejected by the shape checks, not abort the process trying to
        // allocate the declared bank.
        let spec = SketchSpec::new(SketchTask::Connectivity, 5).with_seed(3);
        let file = SketchFile::new(spec, spec.build()).unwrap();
        let tampered = file.to_json().replace("\"n\":5", "\"n\":99999999999");
        assert!(SketchFile::from_json(&tampered).is_err());
    }

    #[test]
    fn unconstructible_v2_spec_header_is_an_error_not_a_panic() {
        // Sketch constructors assert on out-of-range spec values; a v2
        // file whose header declares such a spec must fail with a
        // WireError (the build is contained like the v1 probe).
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(4);
        let file = SketchFile::new(spec, spec.build()).unwrap();
        let mut bytes = file.to_bytes();
        let at = V2_MAGIC.len() + 8;
        let spec_len = u32::from_le_bytes(bytes[at - 4..at].try_into().unwrap()) as usize;
        let header = String::from_utf8(bytes[at..at + spec_len].to_vec()).unwrap();
        // Same-length edit keeps the length prefix valid: n = 8 -> n = 1.
        let bad = header.replacen("\"n\":8", "\"n\":1", 1);
        assert_eq!(bad.len(), spec_len);
        bytes[at..at + spec_len].copy_from_slice(bad.as_bytes());
        reseal(&mut bytes);
        match SketchFile::from_bytes(&bytes) {
            Err(WireError::Spec(e)) => {
                assert_eq!(e, crate::api::SpecError::TooFewVertices { n: 1 })
            }
            other => panic!("expected typed spec rejection, got {other:?}"),
        }
    }

    #[test]
    fn state_spec_disagreement_is_rejected() {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8);
        let other = SketchSpec::new(SketchTask::Bipartite, 8);
        assert_eq!(
            SketchFile::new(spec, other.build()),
            Err(WireError::StateMismatch)
        );
        // Same task, different n: also not what the spec describes.
        let small = SketchSpec::new(SketchTask::Connectivity, 4);
        assert_eq!(
            SketchFile::new(spec, small.build()),
            Err(WireError::StateMismatch)
        );
    }

    #[test]
    fn mismatched_specs_refuse_to_merge() {
        let a_spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(1);
        let b_spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(2);
        let mut a = SketchFile::new(a_spec, a_spec.build()).unwrap();
        let b = SketchFile::new(b_spec, b_spec.build()).unwrap();
        assert!(matches!(
            a.try_merge(&b),
            Err(WireError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn checksum_guards_every_binary_byte() {
        let spec = SketchSpec::new(SketchTask::Connectivity, 6).with_seed(2);
        let mut file = SketchFile::new(spec, fed(&spec, &[EdgeUpdate::insert(0, 1)])).unwrap();
        for bytes in [file.to_bytes(), file.delta_bytes()] {
            // Flip one bit past the magic/version header: the checksum
            // gate must refuse before anything is parsed.
            let mut flipped = bytes.clone();
            let at = V2_MAGIC.len() + 4 + 2;
            flipped[at] ^= 0x10;
            let v2 = SketchFile::from_bytes(&flipped);
            let delta = SketchDelta::from_bytes(&flipped);
            let err = if bytes.starts_with(V2_MAGIC) {
                v2.err()
            } else {
                delta.err()
            };
            match err {
                Some(WireError::Corrupt(detail)) => {
                    assert!(detail.contains("checksum"), "detail: {detail}")
                }
                other => panic!("expected checksum rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn delta_round_trip_reconstructs_the_sketch() {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(6);
        let first = vec![EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 2)];
        let second = vec![EdgeUpdate::delete(0, 1), EdgeUpdate::insert(3, 4)];
        let mut worker = SketchFile::new(spec, spec.build()).unwrap();
        let mut coordinator = SketchFile::new(spec, spec.build()).unwrap();
        for round in [&first, &second] {
            worker.state.absorb(round);
            let delta = worker.delta_bytes();
            coordinator.apply_delta(&delta).unwrap();
        }
        // Draining left the worker at zero...
        assert_eq!(worker.state, spec.build());
        // ...and the coordinator at the central sketch, bit for bit.
        let whole: Vec<EdgeUpdate> = first.into_iter().chain(second).collect();
        assert_eq!(coordinator.state, fed(&spec, &whole));
        // A drained worker's next delta is valid and empty.
        let empty = worker.delta_bytes();
        assert!(SketchDelta::from_bytes(&empty).unwrap().is_empty());
        coordinator.apply_delta(&empty).unwrap();
        assert_eq!(coordinator.state, fed(&spec, &whole));
    }

    #[test]
    fn delta_refuses_mismatched_spec_and_geometry() {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(1);
        let mut worker = SketchFile::new(spec, fed(&spec, &[EdgeUpdate::insert(0, 1)])).unwrap();
        let delta = worker.delta_bytes();
        // Different seed: refused whole, coordinator state untouched.
        let other = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(9);
        let mut coord = SketchFile::new(other, other.build()).unwrap();
        let before = coord.state.clone();
        assert!(matches!(
            coord.apply_delta(&delta),
            Err(WireError::SpecMismatch { .. })
        ));
        assert_eq!(coord.state, before);
        // A full v2 file is not a delta record.
        let full = worker.to_bytes();
        assert_eq!(SketchDelta::from_bytes(&full), Err(WireError::BadMagic));
        // And a delta record is not a standalone sketch file.
        match SketchFile::from_bytes(&delta) {
            Err(WireError::Corrupt(detail)) => {
                assert!(detail.contains("delta record"), "detail: {detail}")
            }
            other => panic!("expected delta-record rejection, got {other:?}"),
        }
    }

    #[test]
    fn hostile_delta_spec_is_contained_at_bootstrap() {
        // Parsing a delta never builds its spec, so a checksum-valid
        // record declaring an unconstructible sketch must be caught by
        // the contained build in empty_file — typed error, no panic.
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(2);
        let mut worker = SketchFile::new(spec, spec.build()).unwrap();
        let bytes = worker.delta_bytes();
        let at = DELTA_MAGIC.len() + 4;
        let spec_len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let header = String::from_utf8(bytes[at + 4..at + 4 + spec_len].to_vec()).unwrap();
        // Same-length edit keeps the length prefix valid: n = 8 -> n = 1.
        let bad = header.replacen("\"n\":8", "\"n\":1", 1);
        assert_eq!(bad.len(), spec_len);
        let mut tampered = bytes.clone();
        tampered[at + 4..at + 4 + spec_len].copy_from_slice(bad.as_bytes());
        reseal(&mut tampered);
        let delta = SketchDelta::from_bytes(&tampered).expect("parsing never builds the spec");
        match delta.empty_file() {
            Err(WireError::Spec(e)) => {
                assert_eq!(e, crate::api::SpecError::TooFewVertices { n: 1 })
            }
            other => panic!("expected typed spec rejection, got {other:?}"),
        }
        // The untampered record bootstraps an empty receiver that the
        // delta then applies into cleanly.
        let delta = SketchDelta::from_bytes(&bytes).unwrap();
        let mut boot = delta.empty_file().unwrap();
        assert_eq!(boot.state, spec.build());
        boot.apply_delta_parsed(&delta).unwrap();
    }

    #[test]
    fn delta_rejects_nonmonotonic_indices_even_resealed() {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(3);
        let ups = [EdgeUpdate::insert(0, 1), EdgeUpdate::insert(2, 3)];
        let mut worker = SketchFile::new(spec, fed(&spec, &ups)).unwrap();
        let bytes = worker.delta_bytes();
        let parsed = SketchDelta::from_bytes(&bytes).unwrap();
        // Find a bank shipping >= 2 cells and swap its first two indices.
        let (bank_at, _) = parsed
            .banks
            .iter()
            .enumerate()
            .find(|(_, b)| b.idx.len() >= 2)
            .expect("some bank ships two cells");
        let mut at = DELTA_MAGIC.len() + 4;
        at += 4 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4; // bank count
        for b in &parsed.banks[..bank_at] {
            at += 16 + b.idx.len() * (4 + 8 + 16 + 8);
        }
        at += 16; // geometry + touched count of the target bank
        let mut tampered = bytes.clone();
        let (i, j) = (at, at + 4);
        for k in 0..4 {
            tampered.swap(i + k, j + k);
        }
        reseal(&mut tampered);
        match SketchDelta::from_bytes(&tampered) {
            Err(WireError::Corrupt(detail)) => {
                assert!(detail.contains("ascending"), "detail: {detail}")
            }
            other => panic!("expected monotonicity rejection, got {other:?}"),
        }
    }

    #[test]
    fn merging_equal_specs_is_the_linear_merge() {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(5);
        let first = vec![EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 2)];
        let second = vec![EdgeUpdate::insert(2, 3), EdgeUpdate::delete(0, 1)];
        let mut a = SketchFile::new(spec, fed(&spec, &first)).unwrap();
        let b = SketchFile::new(spec, fed(&spec, &second)).unwrap();
        a.try_merge(&b).unwrap();
        let whole: Vec<EdgeUpdate> = first.into_iter().chain(second).collect();
        assert_eq!(a.state, fed(&spec, &whole));
    }

    #[test]
    fn durable_replace_swaps_the_file_or_leaves_it_and_no_staging_file() {
        let dir = std::env::temp_dir().join(format!("gs-wire-replace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, staging) = (dir.join("x.state"), dir.join("x.state.tmp"));
        std::fs::write(&path, b"old").unwrap();

        replace_file_durably(&path, &staging, |out| out.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!staging.exists());

        let refused = replace_file_durably(&path, &staging, |out| {
            out.write_all(b"half")?;
            Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
        });
        let e = refused.unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WriteZero);
        assert!(e.to_string().contains("writing"), "{e}");
        assert_eq!(std::fs::read(&path).unwrap(), b"new", "old file kept");
        assert!(!staging.exists(), "staging file removed on error");

        // A missing directory fails at the first step, leaving nothing.
        let nowhere = dir.join("missing").join("x.state");
        let e =
            replace_file_durably(&nowhere, &dir.join("missing").join("t"), |_| Ok(())).unwrap_err();
        assert!(e.to_string().contains("creating"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
