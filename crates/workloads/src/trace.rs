//! The versioned, replayable trace format.
//!
//! A trace is a generator spec (including its seed — the recipe) plus
//! the update stream it produced (the material), so a trace file both
//! *documents* and *is* the workload. Three interchangeable encodings:
//!
//! * **Binary** (`AGMSKT1\n`): the compact archival/CI-artifact form.
//!   Little-endian, length-prefixed, FNV-1a-checksummed like the wire
//!   formats, with the capped-allocation discipline of
//!   [`graph_sketches::wire`] — a hostile header cannot force an
//!   allocation the bytes do not back.
//! * **JSONL** (`to_jsonl` / `from_jsonl`): a meta line then one
//!   `[u, v, delta]` line per update — greppable, diffable, jq-able.
//! * **Text** (`to_text`): the CLI's `+ u v [w]` stream lines, so any
//!   trace pipes straight into `graph-sketch <task> … < trace.txt`.
//!
//! ```text
//! magic  "AGMSKT1\n"                      8 bytes
//! u32    format version (= 1)
//! u32    meta length, then meta JSON      {generator, kind, n, updates}
//! u64    update count
//! count × (u64 u, u64 v, i64 delta)       24 bytes each, LE
//! u64    FNV-1a checksum of every preceding byte
//! ```

use crate::generate::GeneratorSpec;
use graph_sketches::wire::v2_checksum;
use gs_graph::Graph;
use gs_sketch::EdgeUpdate;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Magic prefix of the binary trace layout.
pub const TRACE_MAGIC: &[u8; 8] = b"AGMSKT1\n";

/// The binary layout version this build writes and reads.
pub const TRACE_VERSION: u32 = 1;

/// Cap on the embedded meta document (a generator spec is tens of
/// bytes; a megabyte of "meta" is an attack, not a workload).
const MAX_META: usize = 1 << 20;

/// How a trace's deltas are meant to be read — decides how
/// [`Trace::materialize`] reconstructs the exact final graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateKind {
    /// `|delta|` is a multiplicity: parallel unit edges accumulate, and
    /// the final graph carries the net multiplicity as the edge weight
    /// (the multigraph convention of the differential harness).
    Unit,
    /// `|delta|` is an edge weight: an insert/delete pair of the same
    /// `(u, v, w)` cancels, distinct weights on one pair are parallel
    /// weighted edges (the §3.5 value-carrying convention).
    Weighted,
}

/// Why trace bytes were refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The bytes do not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The layout version is not [`TRACE_VERSION`].
    Version {
        /// The version found.
        found: u32,
    },
    /// The bytes end before the declared structure does.
    Truncated {
        /// Offset at which bytes ran out.
        at: usize,
    },
    /// A declared length is implausible for the bytes present.
    Length(String),
    /// The trailing FNV-1a checksum does not match.
    Checksum,
    /// The meta document does not parse as a generator spec.
    Meta(String),
    /// An update is malformed (zero delta, self-loop, endpoint ≥ n).
    Update {
        /// Index of the offending update.
        index: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// The updates sum to a negative net count on some edge — the trace
    /// deletes copies that were never inserted.
    Negative {
        /// The offending endpoints.
        u: usize,
        /// See `u`.
        v: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::Version { found } => {
                write!(f, "trace version {found}, this build reads {TRACE_VERSION}")
            }
            TraceError::Truncated { at } => write!(f, "trace truncated at byte {at}"),
            TraceError::Length(detail) => write!(f, "bad length: {detail}"),
            TraceError::Checksum => write!(f, "trace checksum mismatch"),
            TraceError::Meta(detail) => write!(f, "bad trace meta: {detail}"),
            TraceError::Update { index, detail } => {
                write!(f, "bad update #{index}: {detail}")
            }
            TraceError::Negative { u, v } => {
                write!(f, "edge ({u}, {v}) ends with negative net multiplicity")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A replayable workload: the generator recipe and the stream it made.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The generator (with its seed) that produced this trace.
    pub generator: GeneratorSpec,
    /// How the deltas are read (multiplicity vs weight).
    pub kind: UpdateKind,
    /// The vertex-set size `n` the updates range over.
    pub n: usize,
    /// The update stream, in arrival order.
    pub updates: Vec<EdgeUpdate>,
}

impl Trace {
    /// The meta document embedded in every encoding.
    fn meta_value(&self) -> Value {
        Value::Map(vec![
            ("generator".into(), self.generator.to_value()),
            ("kind".into(), self.kind.to_value()),
            ("n".into(), Value::UInt(self.n as u64)),
            ("updates".into(), Value::UInt(self.updates.len() as u64)),
        ])
    }

    fn meta_from_value(v: &Value) -> Result<(GeneratorSpec, UpdateKind, usize), TraceError> {
        let generator = v
            .get("generator")
            .ok_or_else(|| TraceError::Meta("missing field `generator`".into()))
            .and_then(|g| {
                GeneratorSpec::from_value(g).map_err(|e| TraceError::Meta(e.to_string()))
            })?;
        let kind = v
            .get("kind")
            .ok_or_else(|| TraceError::Meta("missing field `kind`".into()))
            .and_then(|k| UpdateKind::from_value(k).map_err(|e| TraceError::Meta(e.to_string())))?;
        let n = v
            .get("n")
            .and_then(Value::as_u64)
            .ok_or_else(|| TraceError::Meta("missing or non-integer field `n`".into()))?;
        Ok((generator, kind, n as usize))
    }

    /// Serializes the binary layout. Deterministic: identical trace ⇒
    /// identical bytes (the determinism tests pin this).
    pub fn to_bytes(&self) -> Vec<u8> {
        let meta = self.meta_value().to_json();
        let mut out = Vec::with_capacity(32 + meta.len() + 24 * self.updates.len());
        out.extend_from_slice(TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        out.extend_from_slice(meta.as_bytes());
        out.extend_from_slice(&(self.updates.len() as u64).to_le_bytes());
        for up in &self.updates {
            out.extend_from_slice(&(up.u as u64).to_le_bytes());
            out.extend_from_slice(&(up.v as u64).to_le_bytes());
            out.extend_from_slice(&up.delta.to_le_bytes());
        }
        let checksum = v2_checksum(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses the binary layout, verifying structure, checksum, and
    /// every update against the declared `n`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut at = 0usize;
        let take = |at: &mut usize, len: usize| -> Result<&[u8], TraceError> {
            let end = at
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or(TraceError::Truncated { at: bytes.len() })?;
            let slice = bytes
                .get(*at..end)
                .ok_or(TraceError::Truncated { at: bytes.len() })?;
            *at = end;
            Ok(slice)
        };
        // `take` returns exactly `len` bytes or errors, so the fixed-size
        // view always converts; a typed error keeps the path panic-free.
        fn word<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], TraceError> {
            bytes.try_into().map_err(|_| TraceError::Truncated { at })
        }
        if take(&mut at, 8)? != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u32::from_le_bytes(word(take(&mut at, 4)?, at)?);
        if version != TRACE_VERSION {
            return Err(TraceError::Version { found: version });
        }
        let meta_len = u32::from_le_bytes(word(take(&mut at, 4)?, at)?) as usize;
        if meta_len > MAX_META {
            return Err(TraceError::Length(format!(
                "meta declares {meta_len} bytes, the cap is {MAX_META}"
            )));
        }
        let meta_bytes = take(&mut at, meta_len)?;
        let meta_text = std::str::from_utf8(meta_bytes)
            .map_err(|_| TraceError::Meta("meta is not UTF-8".into()))?;
        let meta = Value::from_json(meta_text).map_err(|e| TraceError::Meta(e.to_string()))?;
        let (generator, kind, n) = Trace::meta_from_value(&meta)?;
        let count = u64::from_le_bytes(word(take(&mut at, 8)?, at)?) as usize;
        // The declared count must be exactly backed by the remaining
        // bytes (minus the trailing checksum) — checked before the
        // allocation, so a hostile count cannot reserve unbacked memory.
        let remaining = bytes.len().saturating_sub(at + 8);
        if count
            .checked_mul(24)
            .map(|need| need != remaining)
            .unwrap_or(true)
        {
            return Err(TraceError::Length(format!(
                "{count} updates declare {} bytes, {remaining} present",
                count.saturating_mul(24)
            )));
        }
        let body_end = at + 24 * count;
        let body = bytes
            .get(..body_end)
            .ok_or(TraceError::Truncated { at: bytes.len() })?;
        let declared = u64::from_le_bytes(word(
            bytes
                .get(body_end..body_end + 8)
                .ok_or(TraceError::Truncated { at: bytes.len() })?,
            body_end,
        )?);
        if v2_checksum(body) != declared {
            return Err(TraceError::Checksum);
        }
        let mut updates = Vec::with_capacity(count.min(remaining / 24 + 1));
        for index in 0..count {
            let u = u64::from_le_bytes(word(take(&mut at, 8)?, at)?) as usize;
            let v = u64::from_le_bytes(word(take(&mut at, 8)?, at)?) as usize;
            let delta = i64::from_le_bytes(word(take(&mut at, 8)?, at)?);
            let up = EdgeUpdate { u, v, delta };
            up.validate(n).map_err(|e| TraceError::Update {
                index,
                detail: e.to_string(),
            })?;
            updates.push(up);
        }
        Ok(Trace {
            generator,
            kind,
            n,
            updates,
        })
    }

    /// Serializes the JSONL form: the meta object on line 1, then one
    /// `[u, v, delta]` array per update.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.meta_value().to_json();
        out.push('\n');
        for up in &self.updates {
            let line = Value::Seq(vec![
                Value::UInt(up.u as u64),
                Value::UInt(up.v as u64),
                Value::Int(up.delta),
            ]);
            out.push_str(&line.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses the JSONL form.
    pub fn from_jsonl(text: &str) -> Result<Trace, TraceError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let meta_line = lines
            .next()
            .ok_or_else(|| TraceError::Meta("empty document".into()))?;
        let meta = Value::from_json(meta_line).map_err(|e| TraceError::Meta(e.to_string()))?;
        let (generator, kind, n) = Trace::meta_from_value(&meta)?;
        let mut updates = Vec::new();
        for (index, line) in lines.enumerate() {
            let v = Value::from_json(line).map_err(|e| TraceError::Update {
                index,
                detail: e.to_string(),
            })?;
            let seq = v
                .as_seq()
                .filter(|s| s.len() == 3)
                .ok_or_else(|| TraceError::Update {
                    index,
                    detail: "expected [u, v, delta]".into(),
                })?;
            let field = |i: usize, name: &str| {
                seq.get(i)
                    .and_then(|x| x.as_i64())
                    .ok_or_else(|| TraceError::Update {
                        index,
                        detail: format!("non-integer {name}"),
                    })
            };
            let up = EdgeUpdate {
                u: field(0, "u")? as usize,
                v: field(1, "v")? as usize,
                delta: field(2, "delta")?,
            };
            up.validate(n).map_err(|e| TraceError::Update {
                index,
                detail: e.to_string(),
            })?;
            updates.push(up);
        }
        Ok(Trace {
            generator,
            kind,
            n,
            updates,
        })
    }

    /// Parses either on-disk encoding, sniffed by content: bytes opening
    /// with [`TRACE_MAGIC`] are the binary layout, anything else must be
    /// the JSONL text form. (The CLI loads trace files through this, so
    /// both encodings work everywhere a trace is accepted.)
    pub fn from_any(bytes: &[u8]) -> Result<Trace, TraceError> {
        if bytes.starts_with(TRACE_MAGIC) {
            return Trace::from_bytes(bytes);
        }
        let text = std::str::from_utf8(bytes)
            .map_err(|_| TraceError::Meta("neither binary trace nor UTF-8 JSONL".into()))?;
        Trace::from_jsonl(text)
    }

    /// Renders the CLI's stream form (`+ u v [w]` / `- u v [w]`), one
    /// update per line — pipe it into any `graph-sketch` verb.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for up in &self.updates {
            let sign = if up.delta > 0 { '+' } else { '-' };
            let w = up.weight();
            if w == 1 {
                out.push_str(&format!("{sign} {} {}\n", up.u, up.v));
            } else {
                out.push_str(&format!("{sign} {} {} {w}\n", up.u, up.v));
            }
        }
        out
    }

    /// Reconstructs the exact final graph the stream leaves behind —
    /// the baseline the experiment runner scores sketch answers against.
    ///
    /// A stream that is not a valid dynamic stream (a deletion without a
    /// matching prior insertion) is refused as [`TraceError::Negative`],
    /// naming the first pair, in stream order, whose running count goes
    /// negative — even if a later insertion would restore it. Traces
    /// from [`GeneratorSpec::generate`] never trip it, but a trace
    /// loaded from a file is untrusted input and must not panic the
    /// caller.
    pub fn materialize(&self) -> Result<Graph, TraceError> {
        match self.kind {
            UpdateKind::Unit => Graph::from_unit_updates(self.n, &self.updates)
                .map_err(|(u, v)| TraceError::Negative { u, v }),
            UpdateKind::Weighted => {
                // Running copy count per (pair, weight); distinct weights
                // on one pair stay parallel weighted edges.
                let mut copies: BTreeMap<(usize, usize, u64), i64> = BTreeMap::new();
                for up in &self.updates {
                    let (u, v) = (up.u.min(up.v), up.u.max(up.v));
                    let c = copies.entry((u, v, up.weight())).or_insert(0);
                    *c += up.sign();
                    if *c < 0 {
                        return Err(TraceError::Negative { u, v });
                    }
                }
                let mut g = Graph::new(self.n);
                for ((u, v, w), c) in copies {
                    for _ in 0..c {
                        g.add_edge(u, v, w);
                    }
                }
                Ok(g)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        GeneratorSpec::PowerLawChurn {
            n: 24,
            attach: 2,
            churn: 10,
            seed: 7,
        }
        .generate()
    }

    #[test]
    fn binary_round_trip_is_identity() {
        let t = sample();
        let bytes = t.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn invalid_dynamic_stream_is_a_typed_error_not_a_panic() {
        // A trace that deletes an edge never inserted: a hostile (or
        // corrupted-but-checksum-valid) file must refuse materialization
        // with TraceError::Negative instead of panicking the caller.
        let mut t = sample();
        t.updates = vec![EdgeUpdate {
            u: 0,
            v: 1,
            delta: -1,
        }];
        match t.materialize() {
            Err(TraceError::Negative { u: 0, v: 1 }) => {}
            other => panic!("expected Negative error, got {other:?}"),
        }
    }

    #[test]
    fn a_negative_prefix_is_refused_even_when_the_net_count_is_zero() {
        let mut t = sample();
        t.updates = vec![EdgeUpdate::delete(0, 1), EdgeUpdate::insert(0, 1)];
        assert_eq!(
            t.materialize().unwrap_err(),
            TraceError::Negative { u: 0, v: 1 }
        );
        t.kind = UpdateKind::Weighted;
        t.updates = vec![
            EdgeUpdate::weighted(1, 0, 5, -1),
            EdgeUpdate::weighted(0, 1, 5, 1),
        ];
        assert_eq!(
            t.materialize().unwrap_err(),
            TraceError::Negative { u: 0, v: 1 }
        );
        // A weighted copy is counted per weight: deleting weight 3 after
        // inserting weight 5 is a negative prefix too.
        t.updates = vec![
            EdgeUpdate::weighted(0, 1, 5, 1),
            EdgeUpdate::weighted(0, 1, 3, -1),
            EdgeUpdate::weighted(0, 1, 3, 1),
        ];
        assert_eq!(
            t.materialize().unwrap_err(),
            TraceError::Negative { u: 0, v: 1 }
        );
    }

    #[test]
    fn jsonl_round_trip_is_identity() {
        let t = sample();
        assert_eq!(Trace::from_jsonl(&t.to_jsonl()).unwrap(), t);
    }

    #[test]
    fn corruption_is_refused_with_typed_errors() {
        let t = sample();
        let good = t.to_bytes();
        assert_eq!(
            Trace::from_bytes(b"AGMSKX1\nrest"),
            Err(TraceError::BadMagic)
        );
        // Flip one body byte: the checksum must catch it.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            Trace::from_bytes(&bad),
            Err(TraceError::Checksum) | Err(TraceError::Meta(_)) | Err(TraceError::Length(_))
        ));
        // Truncate: refused before any update parsing.
        assert!(Trace::from_bytes(&good[..good.len() - 9]).is_err());
        // A hostile count cannot demand unbacked allocation.
        let mut hostile = good.clone();
        let meta_len = u32::from_le_bytes(good[12..16].try_into().unwrap()) as usize;
        let count_at = 8 + 4 + 4 + meta_len;
        hostile[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Trace::from_bytes(&hostile),
            Err(TraceError::Length(_))
        ));
    }

    #[test]
    fn text_form_round_trips_weights() {
        let t = GeneratorSpec::WeightChurn {
            n: 16,
            p: 0.4,
            max_weight: 9,
            churn: 6,
            seed: 3,
        }
        .generate();
        let text = t.to_text();
        assert!(text.lines().count() == t.updates.len());
        assert!(text
            .lines()
            .all(|l| l.starts_with('+') || l.starts_with('-')));
        // Weighted lines carry the weight column.
        assert!(text.lines().any(|l| l.split_whitespace().count() == 4));
    }
}
