//! Cross-process sketch shipping: the binary sketch-file formats.
//!
//! §1.1's coordinator topology only becomes real once sketches cross a
//! process boundary. Sketch state crosses it in exactly two binary
//! layouts, a full file and a delta record; JSON appears only as the spec
//! header inside them. JSON sketch files (the retired wire format 1,
//! `{"format": 1, "spec": …, "state": …}`) are no longer read:
//! [`SketchFile::from_bytes`] refuses them as [`WireError::BadMagic`].
//!
//! **Sketch file (format 2)** — a length-prefixed little-endian dump of the
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
//! The lane words are format-frozen whatever widths the bank stores
//! (a unit-bound spec holds `w` as `i32` and, at moderate `n`, `s` as
//! `i64`): both layouts widen on export, and both import paths
//! range-check every `w` and `s` word into the receiver's widths and
//! refuse a value that does not fit with [`WireError::LaneRange`], for
//! the whole file or record.
//!
//! **Delta record** — the incremental sibling of the sketch file, produced by
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
//! Writing a full file costs its **written state**, not its allocation,
//! while the bytes stay exactly the format above. [`SketchFile::write_to`]
//! is dirty-driven: a bank's clean bitmap words are zero (the delta
//! invariant of [`gs_sketch::CellBank`]), so their cells go out as zero
//! runs without their lanes being read. The checksum kernel jumps over
//! zeros: since FNV-1a maps a zero byte to `h·P`, a run of `k` zero
//! bytes folds as one multiply by `P^k mod 2^64`. And
//! [`SketchFile::write_durably`] writes state files sparse: the encoder
//! hands it each zero run as a length, whose whole 4 KiB blocks become
//! holes without a byte of them being written or scanned, and a written
//! block that holds only zeros becomes a hole too. A sketch poisoned by
//! a lane overflow is refused by both encoders, since neither layout
//! can mark it.
//!
//! Both layouts carry the full [`SketchSpec`] — everything two sites must
//! agree on for their measurements to be compatible — so the coordinator
//! *checks* compatibility instead of trusting the sender.
//! [`SketchFile::try_merge`] refuses (with a [`WireError`]) to fold files
//! whose specs differ in any field or whose bank geometries disagree,
//! [`SketchFile::apply_delta`] refuses deltas the same way, and loading
//! checks every bank's declared geometry against the sketch its declared
//! spec builds, so a corrupted or tampered file fails at load rather than
//! aborting a coordinator mid-merge. The CLI's
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
use gs_sketch::{BankGeometry, IntLane, LinearSketch};
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// The sketch-file wire version, carried in the `u32` after the
/// magic. Version 2 was the pre-checksum binary layout; appending the
/// trailing checksum word changed the byte layout, so the version was
/// bumped to 3 — a version-2 file written by an older build is refused
/// with a [`WireError::Format`] naming both versions, not misread as
/// checksum corruption.
pub const WIRE_FORMAT_BIN: u32 = 3;

/// Magic prefix of a (format 2) sketch file.
pub const V2_MAGIC: &[u8; 8] = b"AGMSKB2\n";

/// Magic prefix of a delta record (the incremental sibling of the sketch
/// file): `D` for delta where the full dump has `B`.
pub const DELTA_MAGIC: &[u8; 8] = b"AGMSKD2\n";

/// The FNV-1a 64-bit offset basis: the checksum state before any byte.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime `P`: each byte `b` maps the state `h` to
/// `(h ^ b)·P mod 2^64`.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `P^n mod 2^64`, by square-and-multiply. A zero byte maps an FNV-1a
/// state `h` to `h·P` (the xor is a no-op), so a run of `n` zero bytes
/// folds into the state as one multiply by this power.
const fn prime_pow(mut n: u64) -> u64 {
    let (mut acc, mut base) = (1u64, FNV_PRIME);
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
}

/// Folds a run of `n` zero bytes into a running FNV-1a 64-bit state, in
/// O(log n) multiplies.
#[inline]
fn fnv1a_zeros(h: u64, n: u64) -> u64 {
    h.wrapping_mul(prime_pow(n))
}

/// `true` iff every byte is zero. Scans 64-byte lines so that a nonzero
/// buffer usually stops at its first line.
fn is_zero(bytes: &[u8]) -> bool {
    bytes
        .chunks(64)
        .all(|line| line.iter().fold(0, |acc, &b| acc | b) == 0)
}

/// Folds `bytes` into a running FNV-1a 64-bit state. The result is the
/// byte-serial definition's, but zeros are jumped over: an all-zero
/// 64-byte line folds as one multiply by `P^64`, an all-zero 8-byte word
/// by `P^8`, and only the other words are folded byte by byte.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    const ZERO_LINE: u64 = prime_pow(64);
    let (lines, tail) = bytes.as_chunks::<64>();
    for line in lines {
        h = if is_zero(line) {
            h.wrapping_mul(ZERO_LINE)
        } else {
            fnv1a_words(h, line)
        };
    }
    fnv1a_words(h, tail)
}

/// [`fnv1a`] below the line level: all-zero 8-byte words fold by one
/// multiply, the rest byte by byte.
fn fnv1a_words(mut h: u64, bytes: &[u8]) -> u64 {
    const ZERO_WORD: u64 = prime_pow(8);
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        h = if u64::from_le_bytes(*word) == 0 {
            h.wrapping_mul(ZERO_WORD)
        } else {
            fnv1a_bytes(h, word)
        };
    }
    fnv1a_bytes(h, tail)
}

/// The byte-serial FNV-1a fold: one xor and one multiply per byte.
#[inline]
fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV-1a 64-bit checksum both binary layouts carry as their final
/// word, computed over every preceding byte. Public so external tools
/// (and the corruption tests) can re-seal a payload they have edited.
/// Zero runs cost one multiply per 64-byte line rather than one per
/// byte, so verifying a mostly-empty file (recovery, every delta record
/// applied) runs at memory speed.
pub fn v2_checksum(payload: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, payload)
}

/// Where the v2 encoder's bytes go. Zero runs arrive by length, so a
/// sink that can leave a run unwritten never receives its bytes.
trait Sink {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Puts `n` zero bytes.
    fn put_zeros(&mut self, n: u64) -> io::Result<()>;
}

/// Zeros to write from: a [`Dense`] sink writes zero runs in pieces of
/// this size.
static ZERO_BLOCK: [u8; 1 << 16] = [0; 1 << 16];

/// Any writer as a [`Sink`]: it receives every byte, zero runs as
/// writes of [`ZERO_BLOCK`].
struct Dense<W: Write>(W);

impl<W: Write> Sink for Dense<W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }

    fn put_zeros(&mut self, mut n: u64) -> io::Result<()> {
        while n > 0 {
            let piece = n.min(ZERO_BLOCK.len() as u64);
            let (zeros, _) = ZERO_BLOCK.split_at(piece as usize);
            self.0.write_all(zeros)?;
            n -= piece;
        }
        Ok(())
    }
}

/// A writer that folds every byte it passes on into a running FNV-1a
/// state, so a binary layout can be streamed and then sealed with its
/// [`v2_checksum`] without ever holding the whole payload. Zero runs are
/// put by length ([`Checksummed::put_zeros`]): consecutive runs coalesce,
/// fold into the checksum by one multiply, and reach the sink as one
/// length.
struct Checksummed<S: Sink> {
    out: S,
    sum: u64,
    /// Zero bytes put but not yet folded or handed on.
    zeros: u64,
}

impl<S: Sink> Checksummed<S> {
    fn new(out: S) -> Self {
        Checksummed {
            out,
            sum: FNV_OFFSET,
            zeros: 0,
        }
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.flush_zeros()?;
        self.sum = fnv1a(self.sum, bytes);
        self.out.put(bytes)
    }

    fn put_u32(&mut self, x: u32) -> io::Result<()> {
        self.put(&x.to_le_bytes())
    }

    /// Puts `n` zero bytes.
    fn put_zeros(&mut self, n: usize) {
        self.zeros += n as u64;
    }

    /// Folds the pending zero run and hands it on.
    fn flush_zeros(&mut self) -> io::Result<()> {
        if self.zeros == 0 {
            return Ok(());
        }
        self.sum = fnv1a_zeros(self.sum, self.zeros);
        self.out.put_zeros(std::mem::take(&mut self.zeros))
    }

    /// Writes the checksum of everything put so far (the checksum word
    /// itself is not hashed).
    fn seal(mut self) -> io::Result<()> {
        self.flush_zeros()?;
        let sum = self.sum;
        self.out.put(&sum.to_le_bytes())
    }
}

/// Streams one lane of a bank, one dirty-bitmap word (64 cells) at a
/// time. A clean word's cells are zero by the bank's delta invariant
/// ("clean ⇒ zero", see [`gs_sketch::CellBank::dirty_words`]), so they
/// are put as a zero run without reading the lane; a dirty word's cells
/// are encoded into one chunk and put with one call.
fn put_lane<S: Sink, T: Copy, const N: usize>(
    out: &mut Checksummed<S>,
    cells: &[T],
    dirty: &[u64],
    to_le: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    debug_assert_eq!(dirty.len(), cells.len().div_ceil(64));
    let mut encoded = [[0u8; N]; 64];
    for (chunk, &word) in cells.chunks(64).zip(dirty) {
        if word == 0 {
            debug_assert!(
                chunk.iter().all(|&x| to_le(x) == [0; N]),
                "a clean cell holds a nonzero value"
            );
            out.put_zeros(chunk.len() * N);
            continue;
        }
        for (dst, &x) in encoded.iter_mut().zip(chunk) {
            *dst = to_le(x);
        }
        let (encoded, _) = encoded.split_at(chunk.len());
        out.put(encoded.as_flattened())?;
    }
    Ok(())
}

/// Streams an integer lane (see [`put_lane`]) as the little-endian wire
/// word `word` makes of each widened cell: the wire carries `w` as 8-byte
/// and `s` as 16-byte words whatever width the bank stores, so
/// compaction never leaks into the format.
fn put_int_lane<S: Sink, const N: usize>(
    out: &mut Checksummed<S>,
    lane: &IntLane,
    dirty: &[u64],
    word: fn(i128) -> [u8; N],
) -> io::Result<()> {
    match lane {
        IntLane::I32(c) => put_lane(out, c, dirty, |x| word(x.into())),
        IntLane::I64(c) => put_lane(out, c, dirty, |x| word(x.into())),
        IntLane::I128(c) => put_lane(out, c, dirty, word),
    }
}

/// The block size [`SparseFile`] turns into a hole when the stream holds
/// only zeros there: the usual filesystem block.
const HOLE_BLOCK: usize = 4096;

/// How many bytes [`SparseFile`] gathers from small writes before handing
/// them to the file: sixteen blocks.
const STAGE_BYTES: usize = 16 * HOLE_BLOCK;

/// A writer into a fresh, empty file that leaves every all-zero,
/// [`HOLE_BLOCK`]-aligned block of the stream unwritten: it seeks past
/// the block, and [`SparseFile::finish`] sets the file's length at the
/// end. A hole reads back as zeros, so the file holds exactly the bytes
/// written, while only the nonzero blocks are allocated, written and
/// synced. Written bytes are scanned block by block; a zero run put by
/// length ([`Sink::put_zeros`]) is never scanned: its whole blocks
/// become holes at once, and only the partial blocks at its two ends
/// are filled with zeros.
struct SparseFile {
    file: File,
    /// Stream bytes not yet handed to the file, from the block-aligned
    /// stream offset `at`; fewer than [`STAGE_BYTES`].
    pending: Vec<u8>,
    /// Stream offset of the first byte of `pending`.
    at: u64,
    /// Offset of the file's cursor.
    cursor: u64,
}

impl SparseFile {
    fn new(file: File) -> Self {
        SparseFile {
            file,
            pending: Vec::new(),
            at: 0,
            cursor: 0,
        }
    }

    /// Hands `bytes`, which start at stream offset `at` (block-aligned),
    /// to the file: each run of nonzero blocks in one write, each
    /// all-zero block skipped.
    fn emit(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            let hole = bytes.chunks(HOLE_BLOCK).take_while(|b| is_zero(b)).count() * HOLE_BLOCK;
            let (hole, rest) = bytes.split_at(hole.min(bytes.len()));
            let data = rest.chunks(HOLE_BLOCK).take_while(|b| !is_zero(b)).count() * HOLE_BLOCK;
            let (data, rest) = rest.split_at(data.min(rest.len()));
            self.at += hole.len() as u64;
            if !data.is_empty() {
                if self.cursor != self.at {
                    self.file.seek(SeekFrom::Start(self.at))?;
                }
                self.file.write_all(data)?;
                self.at += data.len() as u64;
                self.cursor = self.at;
            }
            bytes = rest;
        }
        Ok(())
    }

    /// Emits `pending` and empties it, keeping its allocation.
    fn emit_pending(&mut self) -> io::Result<()> {
        let pending = std::mem::take(&mut self.pending);
        let emitted = self.emit(&pending);
        self.pending = pending;
        self.pending.clear();
        emitted
    }

    /// Hands over the last partial block and sets the file's length to
    /// the stream's, which also materializes a trailing hole.
    fn finish(mut self) -> io::Result<File> {
        self.emit_pending()?;
        self.file.set_len(self.at)?;
        Ok(self.file)
    }
}

impl Write for SparseFile {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.pending.len() + data.len() < STAGE_BYTES {
            self.pending.extend_from_slice(data);
            return Ok(data.len());
        }
        // Complete the partial block and hand over everything staged;
        // then the whole blocks of `data` go straight from the caller's
        // buffer. STAGE_BYTES is a multiple of HOLE_BLOCK and `pending`
        // holds fewer bytes, so the block boundary lies within `data`.
        let fill = self.pending.len().next_multiple_of(HOLE_BLOCK) - self.pending.len();
        let (head, rest) = data.split_at(fill);
        self.pending.extend_from_slice(head);
        self.emit_pending()?;
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % HOLE_BLOCK);
        self.emit(blocks)?;
        self.pending.extend_from_slice(tail);
        Ok(data.len())
    }

    /// Bytes reach the file in whole blocks, the last partial one in
    /// [`SparseFile::finish`]; nothing else is buffered.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Sink for &mut SparseFile {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)
    }

    /// Zero-fills the partial block the run starts in, leaves the run's
    /// whole blocks as a hole by advancing the stream offset, and stages
    /// the run's tail, which the next bytes complete.
    fn put_zeros(&mut self, n: u64) -> io::Result<()> {
        let open = self.pending.len().next_multiple_of(HOLE_BLOCK) - self.pending.len();
        let head = n.min(open as u64);
        self.pending.resize(self.pending.len() + head as usize, 0);
        let rest = n - head;
        if rest == 0 && self.pending.len() < STAGE_BYTES {
            return Ok(());
        }
        // `pending` now ends on a block boundary.
        self.emit_pending()?;
        let tail = rest % HOLE_BLOCK as u64;
        self.at += rest - tail;
        self.pending.resize(tail as usize, 0);
        Ok(())
    }
}

/// Replaces the file at `path` durably with the bytes `write` emits.
/// The bytes are streamed into `staging` (created or truncated), which
/// is fsynced and renamed over `path`; then the directory is fsynced, so
/// the rename itself survives a power loss. `staging` must sit in the
/// same directory as `path` (`rename(2)` is atomic only there). The
/// staging file is a [`SparseFile`].
///
/// # Errors
/// Any I/O error, with the step and file named. The staging file is
/// removed on every error.
fn replace_file_durably(
    path: &Path,
    staging: &Path,
    write: impl FnOnce(&mut SparseFile) -> io::Result<()>,
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
    write: impl FnOnce(&mut SparseFile) -> io::Result<()>,
) -> io::Result<()> {
    let step = |what: &str, at: &Path| {
        let what = format!("{what} {}", at.display());
        move |e: io::Error| io::Error::new(e.kind(), format!("{what}: {e}"))
    };
    let mut out = SparseFile::new(File::create(staging).map_err(step("creating", staging))?);
    write(&mut out).map_err(step("writing", staging))?;
    let file = out.finish().map_err(step("writing", staging))?;
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
    /// The spec header is not valid spec JSON.
    Json(String),
    /// The file declares an unsupported wire version.
    Format {
        /// The version the file declared.
        found: u64,
    },
    /// The bytes do not start with the expected magic: not a sketch file
    /// (a JSON sketch file of the retired wire format 1 included), or a
    /// sketch file where a delta record was expected.
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
    /// `LaneWidth::for_bounds`). The wire always ships `w` as 8-byte and
    /// `s` as 16-byte words; a compacted bank range-checks both on import
    /// (an `i32` `w` lane refuses a word of 2^31 or more in magnitude)
    /// and refuses the whole record rather than wrapping silently.
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
            WireError::Json(e) => write!(f, "malformed spec header: {e}"),
            WireError::Format { found } => write!(
                f,
                "sketch file declares wire format {found}, this build reads format \
                 {WIRE_FORMAT_BIN}"
            ),
            WireError::BadMagic => write!(
                f,
                "not a sketch file: the binary magic is missing (JSON sketch files, wire \
                 format 1, are no longer read)"
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

/// Runs `f`, converting a panic into `None`. Building a sketch from an
/// untrusted spec header (a loaded file's or a delta's) is the one place
/// a panic is an *expected* failure mode: the sketch constructors assert
/// on anything [`SketchSpec::validate`] cannot express, rather than
/// return errors. The global panic hook is silenced for the call's
/// duration, so a rejection yields one clean [`WireError`], not a panic
/// report. The gate serializes concurrent builds; an unrelated panic
/// elsewhere in the process during this window loses only its hook
/// output, not its unwind. Requires the default unwinding panic runtime
/// — under `panic = "abort"` an unconstructible spec aborts the load
/// instead of returning an error.
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
    /// what the spec describes (same task, same `n`). `new` is the trusted
    /// path for states the caller just built from `spec`; a loaded file
    /// never carries foreign structure, since [`SketchFile::from_bytes`]
    /// overlays its lanes onto a sketch built from its own spec header.
    pub fn new(spec: SketchSpec, state: AnySketch) -> Result<Self, WireError> {
        if state.task() != spec.task || LinearSketch::n(&state) != spec.n {
            return Err(WireError::StateMismatch);
        }
        Ok(SketchFile { spec, state })
    }

    /// Checks that both encoders can export the carried state, before
    /// they write or drain anything.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] for a bank of more than `u32::MAX`
    /// cells, which the formats cannot size (geometry axes and delta
    /// indices ride as u32, so a larger bank would truncate silently into
    /// a checksum-valid but unloadable file); and
    /// [`io::ErrorKind::InvalidData`], naming the bank and cell, for a
    /// sketch poisoned by a lane overflow: its lanes hold wrapped values,
    /// not a linear measurement, and neither format carries a poison mark,
    /// so a reader would take them as sound.
    pub fn check_exportable(&self) -> io::Result<()> {
        for (i, bank) in self.state.banks().iter().enumerate() {
            if bank.len() > u32::MAX as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "the binary format sizes banks as u32, bank {i} holds {} cells",
                        bank.len()
                    ),
                ));
            }
            if let Some(overflow) = bank.lane_overflow() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "bank {i}: {overflow}; the poisoned sketch is no longer a linear \
                         measurement and is not exported"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Serializes the file in the binary wire format (v2): the spec
    /// header, then the raw bank lanes and fingerprints, little-endian.
    /// Collects in memory exactly the bytes [`SketchFile::write_to`]
    /// streams.
    ///
    /// # Panics
    /// Panics where [`SketchFile::check_exportable`] refuses: a bank of
    /// more than `u32::MAX` cells, or a sketch poisoned by a lane overflow.
    /// Callers that can hold such state (a served tenant, a CLI export)
    /// call `check_exportable` first, or `write_to` into a `Vec`, and
    /// report the error instead.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Err(e) = self.write_to(&mut out) {
            // A `Vec` sink never fails, so this is a refusal of the state.
            // gs-lint: allow(no-panic-paths, "encode-side refusal of this process's own state; no wire bytes are parsed here")
            panic!("{e}");
        }
        out
    }

    /// Streams the file in the binary wire format (v2) into `out`,
    /// byte for byte what [`SketchFile::to_bytes`] returns. The trailing
    /// checksum is folded from a running state as the bytes pass, so no
    /// whole-file buffer is built; headers and dirty chunks go out as
    /// small writes, so hand a raw file or socket over in a
    /// [`io::BufWriter`].
    ///
    /// The encoding is **dirty-driven**: each bank is walked one
    /// dirty-bitmap word (64 cells) at a time. A clean word is zero by the
    /// bank's delta invariant, so its `w`, `s` and `f` bytes go out as a
    /// zero run, folded into the checksum by one multiply (`h·P^k`) and
    /// never read from the lanes; a dirty word's cells go out as one chunk
    /// per lane. Writing a freshly built sketch therefore costs its header
    /// and a few large writes of zeros, not a pass over its allocation.
    ///
    /// # Errors
    /// Any error `out` reports, and the refusals of
    /// [`SketchFile::check_exportable`], which come before any byte is
    /// written.
    pub fn write_to(&self, out: impl Write) -> io::Result<()> {
        self.encode(Dense(out))
    }

    /// Replaces the file at `path` durably with the bytes
    /// [`SketchFile::to_bytes`] returns. The bytes are streamed into a
    /// staging file beside it (`<path>.tmp.<pid>`), which is fsynced and
    /// renamed over `path`; then the directory is fsynced, so the rename
    /// itself survives a power loss. Afterwards `path` holds the new
    /// bytes on stable storage, and a crash at any earlier point leaves
    /// the old file in place.
    ///
    /// The staging file is written **sparse**, so a state file of a
    /// mostly-empty sketch costs the I/O and disk of its written cells.
    /// The encoder hands each zero run over as a length: the run's whole
    /// 4 KiB blocks become holes, and only the partial blocks at its two
    /// ends are written. Every other 4 KiB block that holds only zeros
    /// becomes a hole too. Holes read back as zeros, so the file's bytes
    /// are unchanged.
    ///
    /// # Errors
    /// The refusals of [`SketchFile::check_exportable`], before any byte
    /// is written, and any I/O error, with the step and file named. The
    /// staging file is removed on every error; `path` is then untouched,
    /// unless only the final directory sync failed, in which case the
    /// rename has happened but may not yet be durable.
    pub fn write_durably(&self, path: &Path) -> io::Result<()> {
        let mut staging = path.as_os_str().to_owned();
        staging.push(format!(".tmp.{}", std::process::id()));
        replace_file_durably(path, Path::new(&staging), |out| self.encode(out))
    }

    /// The exact length of the v2 bytes of this file, from its spec and
    /// bank geometry alone: no lane is read and nothing is encoded.
    pub fn encoded_len(&self) -> u64 {
        // Per cell: `w` (i64), `s` (always 16 bytes on the wire), `f`.
        const CELL_BYTES: u64 = 8 + 16 + 8;
        let header = (V2_MAGIC.len() + 4 + 4 + self.spec.to_json().len() + 4) as u64;
        let banks = self.state.banks();
        let lanes: u64 = banks
            .iter()
            .map(|bank| 3 * 4 + bank.len() as u64 * CELL_BYTES)
            .sum();
        let fingerprints = 4 + 8 * self.state.fingerprints().len() as u64;
        header + lanes + fingerprints + 8
    }

    /// The v2 encoder behind [`SketchFile::write_to`] and
    /// [`SketchFile::write_durably`], streaming into any [`Sink`].
    fn encode(&self, out: impl Sink) -> io::Result<()> {
        self.check_exportable()?;
        let banks = self.state.banks();
        let mut out = Checksummed::new(out);
        out.put(V2_MAGIC)?;
        out.put_u32(WIRE_FORMAT_BIN)?;
        let spec_json = self.spec.to_json();
        out.put_u32(spec_json.len() as u32)?;
        out.put(spec_json.as_bytes())?;
        out.put_u32(banks.len() as u32)?;
        for bank in banks {
            let geom = bank.geometry();
            out.put_u32(geom.reps as u32)?;
            out.put_u32(geom.levels as u32)?;
            out.put_u32(geom.slots as u32)?;
            let dirty = bank.dirty_words();
            // A compacted bank widens here: `w` (at most i64 wide, see
            // `CellBank::with_width`) as 8-byte words, `s` as 16-byte ones.
            put_int_lane(&mut out, bank.w_lane(), dirty, |x| (x as i64).to_le_bytes())?;
            put_int_lane(&mut out, bank.s_lane(), dirty, i128::to_le_bytes)?;
            put_lane(&mut out, bank.f_lane(), dirty, |x| x.value().to_le_bytes())?;
        }
        let fps = self.state.fingerprints();
        out.put_u32(fps.len() as u32)?;
        for fp in fps {
            out.put(&fp.value().to_le_bytes())?;
        }
        out.seal()
    }

    /// Parses a sketch file: magic, version, the trailing checksum
    /// (verified before anything else is read), then the spec header and
    /// the bank lanes overlaid onto a spec-built sketch with per-bank
    /// geometry checks. A delta record is *not* a sketch file (it is one
    /// summand, not a sum) and is named in its rejection; any other bytes
    /// without the magic, a JSON sketch file of the retired wire format 1
    /// included, are [`WireError::BadMagic`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.starts_with(DELTA_MAGIC) {
            return Err(WireError::Corrupt(
                "this is a delta record, not a standalone sketch file; apply it to a \
                 coordinator state (CLI: the sync verb)"
                    .into(),
            ));
        }
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
            // A compacted bank range-checks the widened `w` and `s` wire
            // words before accepting any of them: a value outside a
            // lane's derived bound means the file was produced for a
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

    /// Serializes and **drains** the sketch's pending delta: a
    /// [`DELTA_MAGIC`] record carrying only the cells touched since the
    /// last drain (see the module docs for the layout) plus every
    /// fingerprint scalar, then zeroes exactly what it shipped. Repeated
    /// calls therefore emit consecutive, disjoint-in-time deltas whose sum
    /// at a coordinator ([`SketchFile::apply_delta`]) reconstructs the
    /// full sketch bit for bit — the linearity law on the delta path. A
    /// call with nothing pending emits a valid empty delta.
    ///
    /// # Panics
    /// Panics, before anything is written or drained, where
    /// [`SketchFile::check_exportable`] refuses: a bank of more than
    /// `u32::MAX` cells, or a sketch poisoned by a lane overflow. Callers
    /// that can hold such state (a CLI export) call `check_exportable`
    /// first and report the error instead.
    pub fn delta_bytes(&mut self) -> Vec<u8> {
        if let Err(e) = self.check_exportable() {
            // gs-lint: allow(no-panic-paths, "encode-side refusal of this process's own state; no wire bytes are parsed here")
            panic!("{e}");
        }
        let mut out = Vec::new();
        out.extend_from_slice(DELTA_MAGIC);
        write_u32(&mut out, WIRE_FORMAT_BIN);
        let spec_json = self.spec.to_json();
        write_u32(&mut out, spec_json.len() as u32);
        out.extend_from_slice(spec_json.as_bytes());
        let banks = self.state.banks();
        write_u32(&mut out, banks.len() as u32);
        for bank in banks {
            let geom = bank.geometry();
            write_u32(&mut out, geom.reps as u32);
            write_u32(&mut out, geom.levels as u32);
            write_u32(&mut out, geom.slots as u32);
            let touched = bank.dirty_indices();
            write_u32(&mut out, touched.len() as u32);
            for &i in &touched {
                write_u32(&mut out, i as u32);
            }
            let (w, s, f) = (bank.w_lane(), bank.s_lane(), bank.f_lane());
            // Same rule as `to_bytes`: `w` rides as 8-byte and `s` as
            // 16-byte words, so a compacted bank widens on the way out.
            for &i in &touched {
                out.extend_from_slice(&(w.get(i) as i64).to_le_bytes());
            }
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

    /// The spec header of a sketch file: its byte range and its text.
    fn spec_header(bytes: &[u8]) -> (std::ops::Range<usize>, String) {
        let at = V2_MAGIC.len() + 4;
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let range = at + 4..at + 4 + len;
        let text = String::from_utf8(bytes[range.clone()].to_vec()).unwrap();
        (range, text)
    }

    #[test]
    fn file_round_trips_bit_for_bit() {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(3);
        let state = fed(&spec, &[EdgeUpdate::insert(0, 1), EdgeUpdate::insert(2, 3)]);
        let file = SketchFile::new(spec, state).unwrap();
        let back = SketchFile::from_bytes(&file.to_bytes()).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn wrong_format_version_is_rejected() {
        let spec = SketchSpec::new(SketchTask::Bipartite, 4);
        let mut bytes = SketchFile::new(spec, spec.build()).unwrap().to_bytes();
        // Version 2 was the pre-checksum layout: named, not misread.
        let at = V2_MAGIC.len();
        bytes[at..at + 4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            SketchFile::from_bytes(&bytes),
            Err(WireError::Format { found: 2 })
        );
    }

    #[test]
    fn tampered_spec_seed_is_caught_at_load() {
        // Editing a file's declared seed to match a merge partner is
        // caught by the checksum. A tamperer who re-seals gets a sketch
        // built from the edited spec: its structure always comes from
        // the header, so it can never reach a merge with a foreign
        // structure (the asserting inner merge stays unreachable).
        let spec = SketchSpec::new(SketchTask::Connectivity, 6).with_seed(8);
        let file = SketchFile::new(spec, fed(&spec, &[EdgeUpdate::insert(0, 1)])).unwrap();
        let mut tampered = file.to_bytes();
        let (range, header) = spec_header(&tampered);
        let edited = header.replacen("\"seed\":8", "\"seed\":7", 1);
        assert_ne!(edited, header, "spec seed was rewritten");
        tampered[range].copy_from_slice(edited.as_bytes());
        match SketchFile::from_bytes(&tampered) {
            Err(WireError::Corrupt(detail)) => assert!(detail.contains("checksum"), "{detail}"),
            other => panic!("expected checksum rejection, got {other:?}"),
        }
        reseal(&mut tampered);
        let loaded = SketchFile::from_bytes(&tampered).unwrap();
        assert_eq!(loaded.spec, spec.with_seed(7));
        let partner = spec.with_seed(7);
        let mut partner = SketchFile::new(partner, partner.build()).unwrap();
        partner.try_merge(&loaded).unwrap();
    }

    #[test]
    fn absurd_state_dimensions_fail_without_allocating() {
        // A tiny re-sealed file whose first bank declares u32::MAX cells
        // per axis must be refused by the geometry gate before any lane
        // is read, not abort the process allocating the declared bank.
        let spec = SketchSpec::new(SketchTask::Connectivity, 5).with_seed(3);
        let mut bytes = SketchFile::new(spec, spec.build()).unwrap().to_bytes();
        let (range, _) = spec_header(&bytes);
        let geom = range.end + 4;
        bytes[geom..geom + 12].fill(0xFF);
        reseal(&mut bytes);
        match SketchFile::from_bytes(&bytes) {
            Err(WireError::Geometry {
                bank: 0, declared, ..
            }) => {
                assert_eq!(declared.reps, u32::MAX as usize)
            }
            other => panic!("expected geometry rejection, got {other:?}"),
        }
    }

    #[test]
    fn unconstructible_v2_spec_header_is_an_error_not_a_panic() {
        // Sketch constructors assert on out-of-range spec values; a v2
        // file whose header declares such a spec must fail with a
        // WireError (the build is contained).
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(4);
        let file = SketchFile::new(spec, spec.build()).unwrap();
        let mut bytes = file.to_bytes();
        let (range, header) = spec_header(&bytes);
        // Same-length edit keeps the length prefix valid: n = 8 -> n = 1.
        let bad = header.replacen("\"n\":8", "\"n\":1", 1);
        assert_ne!(bad, header);
        bytes[range].copy_from_slice(bad.as_bytes());
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

    /// The byte-serial FNV-1a definition: the oracle for the zero-jumping
    /// kernel.
    fn fnv1a_bytewise(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// A seeded splitmix64 stream, for test bytes.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// All-zero, random and sparse byte strings of length `len`. The
    /// sparse one is nonzero in about one byte in twelve, so it holds
    /// zero lines, zero words and words with zero high bytes.
    fn test_bytes(len: usize, rng: &mut u64) -> [Vec<u8>; 3] {
        let random = (0..len).map(|_| splitmix(rng) as u8).collect();
        let sparse = (0..len)
            .map(|_| match splitmix(rng) % 12 {
                0 => splitmix(rng) as u8 | 1,
                _ => 0,
            })
            .collect();
        [vec![0; len], random, sparse]
    }

    #[test]
    fn fnv1a_matches_the_byte_serial_loop() {
        let mut rng = 0x5EED;
        let lengths = (0..=200).chain(4095..=4097);
        for len in lengths {
            for bytes in test_bytes(len, &mut rng) {
                for h in [FNV_OFFSET, 0, 1, splitmix(&mut rng)] {
                    assert_eq!(
                        fnv1a(h, &bytes),
                        fnv1a_bytewise(h, &bytes),
                        "len {len}, start {h:#x}"
                    );
                }
            }
        }
        // Every count of zero high bytes in a word, at every offset of a
        // 64-byte line.
        for at in 0..64 {
            for high_zeros in 0..8 {
                let mut line = [0u8; 64];
                line[at] = 0x80;
                if let Some(low) = line.get_mut(at.saturating_sub(7 - high_zeros)..at) {
                    low.fill(0x11);
                }
                assert_eq!(
                    fnv1a(7, &line),
                    fnv1a_bytewise(7, &line),
                    "{at} {high_zeros}"
                );
            }
        }
    }

    #[test]
    fn fnv1a_zeros_equals_hashing_zero_bytes_and_runs_compose() {
        let zeros = [0u8; 1024];
        for h in [FNV_OFFSET, 0, 0xdead_beef_u64] {
            for n in 0..=1024 {
                assert_eq!(
                    fnv1a_zeros(h, n as u64),
                    fnv1a_bytewise(h, &zeros[..n]),
                    "n {n}"
                );
            }
        }
        // P^a · P^b = P^(a+b), and two runs fold as one, far past any
        // length a loop could check.
        let runs = [0, 1, 63, 64, 4096, 90_439_806, 1 << 40, 12_345_678_901_234];
        for a in runs {
            for b in runs {
                assert_eq!(
                    prime_pow(a).wrapping_mul(prime_pow(b)),
                    prime_pow(a + b),
                    "{a} + {b}"
                );
                assert_eq!(
                    fnv1a_zeros(fnv1a_zeros(FNV_OFFSET, a), b),
                    fnv1a_zeros(FNV_OFFSET, a + b)
                );
            }
        }
    }

    #[test]
    fn write_to_refuses_a_poisoned_sketch_before_writing_a_byte() {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(9);
        let wrap = EdgeUpdate {
            u: 0,
            v: 1,
            delta: i64::MAX,
        };
        let poisoned = fed(&spec, &[wrap, wrap, EdgeUpdate::insert(2, 3)]);
        let (bank, overflow) = poisoned
            .banks()
            .iter()
            .enumerate()
            .find_map(|(i, b)| b.lane_overflow().map(|e| (i, e)))
            .expect("i64::MAX twice overflows a lane");
        let mut file = SketchFile::new(spec, poisoned).unwrap();
        let mut out = Vec::new();
        let e = file.write_to(&mut out).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(
            e.to_string().contains(&format!("bank {bank}: {overflow}")),
            "{e}"
        );
        assert!(out.is_empty(), "no byte written before the refusal");

        let dir = std::env::temp_dir().join(format!("gs-wire-poison-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, staging) = (dir.join("p.state"), dir.join("p.state.tmp"));
        std::fs::write(&path, b"last good").unwrap();
        let e = replace_file_durably(&path, &staging, |out| file.write_to(out)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), b"last good");
        assert!(!staging.exists());
        std::fs::remove_dir_all(&dir).unwrap();

        // The delta encoder refuses too, before it drains anything.
        let before = file.state.clone();
        assert!(contained(|| file.delta_bytes()).is_none(), "refused");
        assert_eq!(file.state, before, "nothing was drained");
    }

    #[test]
    fn sparse_staging_keeps_leading_inner_and_trailing_zero_blocks_exact() {
        let dir = std::env::temp_dir().join(format!("gs-wire-sparse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, staging) = (dir.join("s.state"), dir.join("s.state.tmp"));
        let block = HOLE_BLOCK;
        let mut rng = 0xB10C;
        // Starts and ends with zero blocks (a leading hole and a tail
        // only `set_len` creates), with unaligned data and zero runs in
        // between.
        let mut stream = vec![0u8; 3 * block];
        stream.extend((0..5000).map(|_| splitmix(&mut rng) as u8 | 1));
        stream.extend(vec![0u8; 5 * block + 17]);
        stream.extend([0xAB; 3]);
        stream.extend(vec![0u8; STAGE_BYTES + 2 * block + 100]);
        for pieces in [vec![stream.len()], vec![1, 7, 4096, 70_000], vec![333]] {
            replace_file_durably(&path, &staging, |out| {
                let mut rest = stream.as_slice();
                for &n in pieces.iter().cycle() {
                    if rest.is_empty() {
                        return Ok(());
                    }
                    let (piece, tail) = rest.split_at(n.min(rest.len()));
                    out.write_all(piece)?;
                    rest = tail;
                }
                Ok(())
            })
            .unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), stream, "pieces {pieces:?}");
        }
        // All zeros, and nothing at all.
        for stream in [vec![0u8; 2 * block + 5], Vec::new()] {
            replace_file_durably(&path, &staging, |out| out.write_all(&stream)).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), stream);
        }
        assert!(!staging.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Blocks a file allocates on disk; off Unix, where they are not
    /// reported, its length (equal on both paths compared).
    fn allocated_blocks(path: &Path) -> u64 {
        let meta = std::fs::metadata(path).unwrap();
        #[cfg(unix)]
        return std::os::unix::fs::MetadataExt::blocks(&meta);
        #[cfg(not(unix))]
        return meta.len();
    }

    #[test]
    fn zero_runs_put_by_length_make_the_byte_path_file_in_no_more_blocks() {
        const LENGTHS: [usize; 8] = [0, 1, 4095, 4096, 4097, 65_535, 65_536, (3 << 20) + 5];
        let dir = std::env::temp_dir().join(format!("gs-wire-runs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, staging) = (dir.join("r.state"), dir.join("r.state.tmp"));
        let mut rng = 0x2E60;
        let mut random = |len: usize| (0..len).map(|_| splitmix(&mut rng) as u8 | 1).collect();
        // A zero run that fills the staged bytes up to STAGE_BYTES exactly,
        // then runs that end one byte either side of a block boundary.
        let edges = vec![
            (false, random(STAGE_BYTES - 1)),
            (true, vec![0; 1]),
            (false, random(1)),
            (true, vec![0; HOLE_BLOCK - 2]),
            (false, random(HOLE_BLOCK)),
            (true, vec![0; HOLE_BLOCK + 1]),
        ];
        let mut sets = vec![edges];
        for _ in 0..24 {
            // Each piece is a zero run, a written all-zero chunk (cells
            // that cancelled out) or written random bytes; the odd
            // lengths start and end the pieces mid-block.
            sets.push(
                (0..6)
                    .map(|_| {
                        let len = LENGTHS[splitmix(&mut rng) as usize % LENGTHS.len()];
                        match splitmix(&mut rng) % 3 {
                            0 => (true, vec![0; len]),
                            1 => (false, vec![0; len]),
                            _ => (false, (0..len).map(|_| splitmix(&mut rng) as u8).collect()),
                        }
                    })
                    .collect(),
            );
        }
        for (round, pieces) in sets.iter().enumerate() {
            let stream: Vec<u8> = pieces.iter().flat_map(|(_, b)| b.iter().copied()).collect();

            replace_file_durably(&path, &staging, |out| {
                pieces
                    .iter()
                    .try_for_each(|(_, bytes)| out.write_all(bytes))
            })
            .unwrap();
            assert!(std::fs::read(&path).unwrap() == stream, "round {round}");
            let byte_path_blocks = allocated_blocks(&path);

            replace_file_durably(&path, &staging, |mut out| {
                pieces.iter().try_for_each(|(run, bytes)| match run {
                    true => out.put_zeros(bytes.len() as u64),
                    false => out.put(bytes),
                })
            })
            .unwrap();
            assert!(std::fs::read(&path).unwrap() == stream, "round {round}");
            let blocks = allocated_blocks(&path);
            assert!(
                blocks <= byte_path_blocks,
                "round {round}: {blocks} blocks, the byte path {byte_path_blocks}"
            );
        }
        assert!(!staging.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
