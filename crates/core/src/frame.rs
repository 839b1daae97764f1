//! The `gs-serve` frame codec: length-prefixed request/response envelopes.
//!
//! The resident sketch service speaks a binary protocol whose *payloads*
//! are the existing wire formats of [`crate::wire`] (spec JSON, v2 sketch
//! blobs, delta records) plus the raw update batch defined here. This
//! module is the transport-independent layer: how a frame is delimited on
//! a byte stream, how a request/response envelope is laid out inside it,
//! and the typed error taxonomy a server answers with. It owns no
//! sockets — `gs-serve` drives it over TCP and Unix streams, the tests
//! drive it over in-memory buffers.
//!
//! **Frame** — the unit of the stream protocol:
//!
//! ```text
//! u32 len (LE) · len bytes of body      (len ≤ the reader's cap)
//! ```
//!
//! **Request body:**
//!
//! ```text
//! u8 proto=1 · u8 opcode · u64 correlation id
//! u16 tenant_len · tenant (UTF-8, [A-Za-z0-9][A-Za-z0-9_-]{0,63})
//! payload = rest of body
//! ```
//!
//! **Response body:**
//!
//! ```text
//! u8 proto=1 · u8 status · u64 correlation id
//! status 0 (OK):   payload = rest of body
//! status 1 (ERR):  u16 code · message = rest of body (UTF-8)
//! status 2 (BUSY): u32 retry-after, milliseconds
//! ```
//!
//! Every request carries a correlation id the response echoes, so a
//! client can pipeline frames on one connection. Every refusal is a typed
//! [`ErrCode`] mapped from the existing [`WireError`] / `SpecError` /
//! `MergeError` taxonomy — a hostile or truncated frame yields an error
//! frame (or a closed connection when the length framing itself is lost),
//! never a dead server.
//!
//! The reader follows the capped-allocation discipline of the wire
//! module: a declared length is bounded by the reader's explicit cap
//! (`MAX_FRAME` for the defaults) and the buffer grows only as bytes
//! actually arrive, so a hostile `len` can neither allocate unbacked
//! gigabytes nor wedge the server — see [`read_frame`].

use crate::api::SpecError;
use crate::wire::WireError;
use gs_sketch::EdgeUpdate;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::io::{self, Read, Write};

/// The protocol version carried as the first byte of every envelope.
pub const PROTO_VERSION: u8 = 1;

/// The default cap on a frame body's declared length (64 MiB): large
/// enough for a full v2 snapshot blob of any test-scale sketch, small
/// enough that a hostile length prefix cannot run the server out of
/// address space. Servers may configure their own cap; the value rides in
/// every [`FrameError::TooLarge`] so the refusal names the limit.
pub const MAX_FRAME: usize = 64 << 20;

/// Magic prefix of a raw edge-update batch payload (`INGEST`'s second
/// accepted payload kind, next to the delta record's `AGMSKD2\n`): `U`
/// for updates. Sniffable against both wire magics and JSON text.
pub const UPDATES_MAGIC: &[u8; 8] = b"AGMSKU1\n";

/// What a frame or envelope failed to parse as. `Io`/`Truncated` are
/// transport-level (the connection is unusable afterwards — the length
/// framing is lost); the rest are body-level and answerable with a typed
/// error frame on a still-healthy connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying stream failed mid-frame.
    Io(String),
    /// The stream ended (or timed out) inside a frame.
    Truncated {
        /// Bytes of the frame that did arrive.
        at: usize,
    },
    /// The stream's read timeout elapsed. The connection is still
    /// healthy; a server uses the idle tick to poll its shutdown flag.
    /// A stateful [`FrameReader`] retains any partial frame across the
    /// tick, so a slow peer trickling bytes across timeouts is never
    /// mistaken for a dead one; the stateless [`read_frame`] only
    /// surfaces `Idle` at a frame boundary (it has nowhere to park
    /// partial bytes, so a mid-frame timeout is an [`FrameError::Io`]).
    Idle,
    /// A frame declared a body longer than the reader's cap.
    TooLarge {
        /// The declared body length.
        declared: usize,
        /// The reader's cap.
        max: usize,
    },
    /// The frame body does not parse as an envelope.
    Malformed(String),
    /// The envelope declares an unsupported protocol version.
    Version {
        /// The version byte found.
        found: u8,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport: {e}"),
            FrameError::Truncated { at } => write!(f, "frame truncated after {at} bytes"),
            FrameError::Idle => write!(f, "connection idle"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame declares {declared} bytes, the cap is {max}")
            }
            FrameError::Malformed(detail) => write!(f, "malformed frame body: {detail}"),
            FrameError::Version { found } => write!(
                f,
                "frame speaks protocol version {found}, this build speaks {PROTO_VERSION}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one length-prefixed frame. Refuses a body over `max` locally —
/// the peer would refuse it anyway, without the bytes ever moving.
pub fn write_frame(w: &mut impl Write, body: &[u8], max: usize) -> Result<(), FrameError> {
    if body.len() > max {
        return Err(FrameError::TooLarge {
            declared: body.len(),
            max,
        });
    }
    let io = |e: io::Error| FrameError::Io(e.to_string());
    w.write_all(&(body.len() as u32).to_le_bytes())
        .map_err(io)?;
    w.write_all(body).map_err(io)?;
    w.flush().map_err(io)
}

/// Reads one length-prefixed frame body. `Ok(None)` is a clean close (EOF
/// exactly at a frame boundary); [`FrameError::Idle`] is a read timeout
/// at a frame boundary (no byte consumed — the caller may simply retry).
/// A timeout **mid-frame** is an [`FrameError::Io`] here, because a
/// stateless call has nowhere to keep the partial bytes — a server
/// polling a read timeout must hold a [`FrameReader`] instead, which
/// parks the partial frame across idle ticks. A declared length over
/// `max` is refused **before any allocation**, and the body buffer grows
/// only as bytes actually arrive, so a hostile length prefix can never
/// force an allocation the stream does not back.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut reader = FrameReader::new();
    match reader.read(r, max) {
        Err(FrameError::Idle) if reader.mid_frame() => Err(FrameError::Io(
            "read timed out mid-frame (stateless read_frame cannot resume; \
             use FrameReader)"
                .into(),
        )),
        other => other,
    }
}

/// How large a chunk the body reader asks the stream for at a time: the
/// buffer grows by at most this much per syscall, so allocation tracks
/// arrival.
const READ_CHUNK: usize = 64 << 10;

/// A resumable frame reader for streams with a read timeout.
///
/// [`read_frame`] loses any partially-read frame when the stream's read
/// timeout fires, which turns a slow peer (trickling a frame's bytes
/// across several timeout windows) into a dropped connection. A
/// `FrameReader` owns the partial header/body between calls: every
/// timeout surfaces as [`FrameError::Idle`] with all progress retained,
/// and the next call resumes exactly where the bytes stopped. Only a
/// true close (EOF) or a transport error ends the conversation — EOF
/// mid-frame is [`FrameError::Truncated`], EOF at a boundary is
/// `Ok(None)`.
///
/// The capped-allocation discipline of [`read_frame`] is preserved: the
/// declared length is checked against `max` before any body allocation,
/// and the buffer grows in [`READ_CHUNK`] steps as bytes actually arrive.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Partial length header (little-endian `u32`).
    header: [u8; 4],
    /// Header bytes received so far.
    header_got: usize,
    /// Declared body length, once the header is complete.
    len: Option<usize>,
    /// Body bytes received so far.
    body: Vec<u8>,
}

impl FrameReader {
    /// A reader at a frame boundary.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Whether a frame is partially read — after [`FrameError::Idle`],
    /// distinguishes "waiting between frames" from "waiting inside one".
    pub fn mid_frame(&self) -> bool {
        self.header_got > 0 || self.len.is_some()
    }

    /// Reads (or resumes reading) one frame. `Ok(None)` is a clean close
    /// at a frame boundary; [`FrameError::Idle`] is a read timeout with
    /// all partial progress retained — call again to resume.
    pub fn read(&mut self, r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
        let len = loop {
            if let Some(len) = self.len {
                break len;
            }
            // gs-lint: allow(no-panic-paths, "header_got <= 4 by the loop exit condition; this slices the local [u8; 4] header buffer, never wire-declared bytes")
            match r.read(&mut self.header[self.header_got..]) {
                Ok(0) if self.header_got == 0 => return Ok(None),
                Ok(0) => {
                    return Err(FrameError::Truncated {
                        at: self.header_got,
                    })
                }
                Ok(n) => {
                    self.header_got += n;
                    if self.header_got == self.header.len() {
                        let len = u32::from_le_bytes(self.header) as usize;
                        if len > max {
                            return Err(FrameError::TooLarge { declared: len, max });
                        }
                        self.len = Some(len);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(FrameError::Idle)
                }
                Err(e) => return Err(FrameError::Io(e.to_string())),
            }
        };
        let mut chunk = [0u8; READ_CHUNK];
        while self.body.len() < len {
            let want = (len - self.body.len()).min(READ_CHUNK);
            // gs-lint: allow(no-panic-paths, "want is clamped to READ_CHUNK on the line above and chunk is a local [u8; READ_CHUNK]")
            match r.read(&mut chunk[..want]) {
                Ok(0) => {
                    return Err(FrameError::Truncated {
                        at: 4 + self.body.len(),
                    })
                }
                // gs-lint: allow(no-panic-paths, "the Read contract bounds n by the want-sized slice handed to read(); a violator is a broken local Read impl, not wire input")
                Ok(n) => self.body.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(FrameError::Idle)
                }
                Err(e) => return Err(FrameError::Io(e.to_string())),
            }
        }
        self.header_got = 0;
        self.len = None;
        Ok(Some(std::mem::take(&mut self.body)))
    }
}

/// The request verbs of the service protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; the payload is echoed back.
    Ping = 0,
    /// Register a tenant; payload = [`crate::api::SketchSpec`] JSON.
    Create = 1,
    /// Feed a tenant; payload = a delta record (`AGMSKD2\n`) or a raw
    /// update batch ([`UPDATES_MAGIC`]).
    Ingest = 2,
    /// Decode a tenant's sketch; payload = optional `u32` thread count
    /// (absent or 0 = auto); response payload = answer JSON.
    Query = 3,
    /// Dump a tenant's full sketch; response payload = a wire-v2 blob.
    Snapshot = 4,
    /// Unregister a tenant and delete its checkpoint.
    Drop = 5,
    /// Service (empty tenant) or tenant counters; response payload = JSON.
    Stats = 6,
    /// Force a durable checkpoint of one tenant (or all, empty tenant).
    Checkpoint = 7,
}

impl Opcode {
    /// All opcodes, for dispatch tables and tests.
    pub const ALL: [Opcode; 8] = [
        Opcode::Ping,
        Opcode::Create,
        Opcode::Ingest,
        Opcode::Query,
        Opcode::Snapshot,
        Opcode::Drop,
        Opcode::Stats,
        Opcode::Checkpoint,
    ];

    fn from_u8(x: u8) -> Option<Opcode> {
        Opcode::ALL.into_iter().find(|&op| op as u8 == x)
    }
}

/// Why a server refused a request — the protocol-level error taxonomy,
/// mapped from the library's typed errors so a remote client sees the
/// same distinctions a linked caller would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrCode {
    /// The envelope or payload does not parse.
    Malformed = 1,
    /// The opcode byte names no verb of this build.
    UnknownOpcode = 2,
    /// The tenant name violates the naming rule ([`valid_tenant`]).
    BadTenantName = 3,
    /// No tenant of that name is registered.
    NoSuchTenant = 4,
    /// `CREATE` of a name that is already registered.
    TenantExists = 5,
    /// The spec was refused ([`SpecError`] — degenerate or hostile).
    Spec = 6,
    /// A wire payload was refused ([`WireError`] — corrupt, truncated,
    /// wrong geometry…), or a tenant's state refused to encode as one
    /// (`SNAPSHOT`/`CHECKPOINT` of a sketch poisoned by a lane overflow).
    Wire = 7,
    /// Sketch states refused to merge (`MergeError`).
    Merge = 8,
    /// An edge update was refused (self-loop, out-of-range, zero delta).
    Update = 9,
    /// The request is valid but the server is shutting down.
    Shutdown = 10,
    /// The server hit an internal invariant violation; the connection
    /// survives, the details are logged server-side.
    Internal = 11,
}

impl ErrCode {
    /// All codes, for round-trip tests.
    pub const ALL: [ErrCode; 11] = [
        ErrCode::Malformed,
        ErrCode::UnknownOpcode,
        ErrCode::BadTenantName,
        ErrCode::NoSuchTenant,
        ErrCode::TenantExists,
        ErrCode::Spec,
        ErrCode::Wire,
        ErrCode::Merge,
        ErrCode::Update,
        ErrCode::Shutdown,
        ErrCode::Internal,
    ];

    fn from_u16(x: u16) -> Option<ErrCode> {
        ErrCode::ALL.into_iter().find(|&c| c as u16 == x)
    }

    /// The code a [`WireError`] maps to: its `Spec` and `Merge` wrappers
    /// keep their own codes, everything else is a wire refusal.
    pub fn from_wire(e: &WireError) -> ErrCode {
        match e {
            WireError::Spec(_) => ErrCode::Spec,
            WireError::Merge(_) => ErrCode::Merge,
            _ => ErrCode::Wire,
        }
    }
}

impl From<&SpecError> for ErrCode {
    fn from(_: &SpecError) -> ErrCode {
        ErrCode::Spec
    }
}

impl std::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrCode::Malformed => "malformed",
            ErrCode::UnknownOpcode => "unknown-opcode",
            ErrCode::BadTenantName => "bad-tenant-name",
            ErrCode::NoSuchTenant => "no-such-tenant",
            ErrCode::TenantExists => "tenant-exists",
            ErrCode::Spec => "spec",
            ErrCode::Wire => "wire",
            ErrCode::Merge => "merge",
            ErrCode::Update => "update",
            ErrCode::Shutdown => "shutdown",
            ErrCode::Internal => "internal",
        };
        write!(f, "{name}")
    }
}

/// `true` iff `name` is a legal tenant name: 1–64 chars, first
/// alphanumeric, rest `[A-Za-z0-9_-]`. The character set is deliberately
/// path-safe — tenant names become checkpoint file names, so separators,
/// dots, and empty names are refused at the protocol boundary instead of
/// being sanitized later.
pub fn valid_tenant(name: &str) -> bool {
    let bytes = name.as_bytes();
    if bytes.len() > 64 {
        return false;
    }
    let Some((first, rest)) = bytes.split_first() else {
        return false;
    };
    first.is_ascii_alphanumeric()
        && rest
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'-')
}

/// One request envelope: the verb, the tenant it addresses (empty for
/// service-wide verbs), an opaque payload, and the correlation id the
/// response will echo.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Echoed verbatim in the response.
    pub corr: u64,
    /// The verb.
    pub op: Opcode,
    /// Addressed tenant ("" for `PING`, service `STATS`, all-tenant
    /// `CHECKPOINT`).
    pub tenant: String,
    /// Verb-specific payload (see [`Opcode`]).
    pub payload: Vec<u8>,
}

impl Request {
    /// Encodes the envelope as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.tenant.len() + self.payload.len());
        out.push(PROTO_VERSION);
        out.push(self.op as u8);
        out.extend_from_slice(&self.corr.to_le_bytes());
        out.extend_from_slice(&(self.tenant.len() as u16).to_le_bytes());
        out.extend_from_slice(self.tenant.as_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes a frame body as a request envelope. The body is taken by
    /// value: the envelope is drained off its front in place, so the
    /// payload keeps the frame's allocation and a frame's bytes are held
    /// once, not once as the frame and again as the payload (a borrowed
    /// body is copied once). The tenant name is *not* validated here (an
    /// empty name is legal for service-wide verbs) — servers gate per-verb
    /// with [`valid_tenant`].
    pub fn decode<'a>(body: impl Into<Cow<'a, [u8]>>) -> Result<Request, FrameError> {
        let mut body = body.into().into_owned();
        let mut r = Cursor::new(&body);
        let version = r.u8()?;
        if version != PROTO_VERSION {
            return Err(FrameError::Version { found: version });
        }
        let op_byte = r.u8()?;
        let op = Opcode::from_u8(op_byte)
            .ok_or_else(|| FrameError::Malformed(format!("unknown opcode {op_byte}")))?;
        let corr = r.u64()?;
        let tenant_len = r.u16()? as usize;
        let tenant = std::str::from_utf8(r.take(tenant_len)?)
            .map_err(|_| FrameError::Malformed("tenant name is not UTF-8".into()))?
            .to_string();
        let envelope = body.len() - r.remaining();
        body.drain(..envelope);
        Ok(Request {
            corr,
            op,
            tenant,
            payload: body,
        })
    }
}

/// One response envelope, correlated to its request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The request succeeded; the payload is verb-specific.
    Ok {
        /// The request's correlation id.
        corr: u64,
        /// Verb-specific payload.
        payload: Vec<u8>,
    },
    /// The request was refused with a typed error.
    Err {
        /// The request's correlation id (0 when the request's own id
        /// could not be parsed).
        corr: u64,
        /// The taxonomy code.
        code: ErrCode,
        /// Human-readable detail (the underlying typed error's Display).
        msg: String,
    },
    /// Ingest backpressure: the tenant's worker queues are full. Retry
    /// after the given delay instead of queueing without bound.
    Busy {
        /// The request's correlation id.
        corr: u64,
        /// Suggested retry delay, milliseconds.
        retry_after_ms: u32,
    },
}

impl Response {
    /// The echoed correlation id.
    pub fn corr(&self) -> u64 {
        match self {
            Response::Ok { corr, .. }
            | Response::Err { corr, .. }
            | Response::Busy { corr, .. } => *corr,
        }
    }

    /// Encodes the envelope as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.push(PROTO_VERSION);
        match self {
            Response::Ok { corr, payload } => {
                out.push(0);
                out.extend_from_slice(&corr.to_le_bytes());
                out.extend_from_slice(payload);
            }
            Response::Err { corr, code, msg } => {
                out.push(1);
                out.extend_from_slice(&corr.to_le_bytes());
                out.extend_from_slice(&(*code as u16).to_le_bytes());
                out.extend_from_slice(msg.as_bytes());
            }
            Response::Busy {
                corr,
                retry_after_ms,
            } => {
                out.push(2);
                out.extend_from_slice(&corr.to_le_bytes());
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a frame body as a response envelope.
    pub fn decode(body: &[u8]) -> Result<Response, FrameError> {
        let mut r = Cursor::new(body);
        let version = r.u8()?;
        if version != PROTO_VERSION {
            return Err(FrameError::Version { found: version });
        }
        let status = r.u8()?;
        let corr = r.u64()?;
        match status {
            0 => Ok(Response::Ok {
                corr,
                payload: r.rest().to_vec(),
            }),
            1 => {
                let raw = r.u16()?;
                let code = ErrCode::from_u16(raw)
                    .ok_or_else(|| FrameError::Malformed(format!("unknown error code {raw}")))?;
                let msg = std::str::from_utf8(r.rest())
                    .map_err(|_| FrameError::Malformed("error message is not UTF-8".into()))?
                    .to_string();
                Ok(Response::Err { corr, code, msg })
            }
            2 => {
                let retry_after_ms = r.u32()?;
                if !r.rest().is_empty() {
                    return Err(FrameError::Malformed(
                        "trailing bytes after a BUSY response".into(),
                    ));
                }
                Ok(Response::Busy {
                    corr,
                    retry_after_ms,
                })
            }
            other => Err(FrameError::Malformed(format!(
                "unknown response status {other}"
            ))),
        }
    }
}

/// Encodes a raw edge-update batch as an `INGEST` payload:
/// [`UPDATES_MAGIC`] · `u32` count · per update `u64 u · u64 v ·
/// i64 delta`, all LE. No checksum — the frame rides a reliable stream
/// and every update is re-validated against the receiving tenant's
/// vertex set before anything is enqueued.
pub fn encode_updates(updates: &[EdgeUpdate]) -> Vec<u8> {
    // gs-lint: allow(no-panic-paths, "encode-side bound on a caller-built batch; no wire bytes are parsed here and a 4-billion-update batch is a caller bug worth stopping")
    assert!(
        updates.len() <= u32::MAX as usize,
        "an update batch payload counts updates as u32, got {}",
        updates.len()
    );
    let mut out = Vec::with_capacity(12 + updates.len() * 24);
    out.extend_from_slice(UPDATES_MAGIC);
    out.extend_from_slice(&(updates.len() as u32).to_le_bytes());
    for up in updates {
        out.extend_from_slice(&(up.u as u64).to_le_bytes());
        out.extend_from_slice(&(up.v as u64).to_le_bytes());
        out.extend_from_slice(&up.delta.to_le_bytes());
    }
    out
}

/// Decodes a raw edge-update batch payload. The declared count's
/// allocation is capped by what the payload can physically back (the wire
/// module's rule); endpoint *semantics* (range, self-loops, zero deltas)
/// are the engine's to validate — this only reconstructs the batch.
pub fn decode_updates(bytes: &[u8]) -> Result<Vec<EdgeUpdate>, FrameError> {
    let Some(body) = bytes.strip_prefix(UPDATES_MAGIC) else {
        return Err(FrameError::Malformed(
            "payload is not an update batch (bad magic)".into(),
        ));
    };
    let mut r = Cursor::new(body);
    let count = r.u32()? as usize;
    let mut ups = Vec::with_capacity(count.min(r.remaining() / 24 + 1));
    for _ in 0..count {
        let u = r.u64()?;
        let v = r.u64()?;
        let delta = i64::from_le_bytes(r.array::<8>()?);
        let to_usize = |x: u64| -> Result<usize, FrameError> {
            usize::try_from(x)
                .map_err(|_| FrameError::Malformed(format!("endpoint {x} overflows usize")))
        };
        ups.push(EdgeUpdate {
            u: to_usize(u)?,
            v: to_usize(v)?,
            delta,
        });
    }
    if !r.rest().is_empty() {
        return Err(FrameError::Malformed(format!(
            "{} trailing bytes after the update batch",
            r.rest().len()
        )));
    }
    Ok(ups)
}

/// Encodes a `QUERY` payload: the decode thread count (0 = server
/// default / auto).
pub fn encode_query(threads: u32) -> Vec<u8> {
    threads.to_le_bytes().to_vec()
}

/// Decodes a `QUERY` payload (empty = 0 = auto).
pub fn decode_query(bytes: &[u8]) -> Result<u32, FrameError> {
    match bytes.len() {
        0 => Ok(0),
        4 => Cursor::new(bytes).u32(),
        n => Err(FrameError::Malformed(format!(
            "a query payload is empty or 4 bytes, got {n}"
        ))),
    }
}

/// A bounds-checked little-endian cursor over a frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(FrameError::Truncated { at: self.pos })?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(FrameError::Truncated { at: self.pos })?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        self.take(N)?
            .try_into()
            .map_err(|_| FrameError::Truncated { at: self.pos })
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.array::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = self.bytes.get(self.pos..).unwrap_or(&[]);
        self.pos = self.bytes.len();
        slice
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// A typed service-stats document (what a `STATS` response's JSON payload
/// parses into): the service-wide counters plus one entry per tenant.
/// Built by `gs-serve`, defined here so clients and tests share the
/// schema.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Registered tenants.
    pub tenants: u64,
    /// Live client connections.
    pub connections: u64,
    /// Frames answered since startup.
    pub frames_served: u64,
    /// The process-wide worker budget.
    pub worker_budget: u64,
    /// Workers currently claimed by tenant engines.
    pub workers_claimed: u64,
    /// Per-tenant counters, sorted by name.
    pub per_tenant: Vec<TenantStats>,
}

/// One tenant's share of a `STATS` response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// The tenant's name.
    pub name: String,
    /// The tenant's task command (e.g. `connectivity`).
    pub task: String,
    /// The tenant's vertex count.
    pub n: u64,
    /// Raw updates ingested via `INGEST` update batches.
    pub updates_ingested: u64,
    /// Delta records applied via `INGEST`.
    pub deltas_applied: u64,
    /// Ingest batches refused with `BUSY`.
    pub busy_rejections: u64,
    /// `QUERY` frames answered from the tenant's answer memo, its only
    /// decode cache (no flush, no decode): the ingest counters had not
    /// moved since the memoized answer was decoded.
    pub decode_cache_hits: u64,
    /// Decodes that replaced a memoized answer because a counted
    /// `INGEST` (raw batch or delta record) moved the tenant's state
    /// since it was decoded. The first decode after `CREATE` or a
    /// restart replaces nothing and counts neither.
    pub decode_cache_invalidations: u64,
    /// Total nanoseconds spent serving the memo-hit `QUERY` frames
    /// counted by `decode_cache_hits`.
    pub cached_answer_ns: u64,
    /// Ingest threads this tenant claimed from the budget: its absorber
    /// splits each batch across them.
    pub workers: u64,
    /// Bytes of the tenant's one sketch, charged at the format-frozen
    /// 32-byte wire cell.
    pub bytes_resident: u64,
    /// Width-aware lane bytes of the tenant's one sketch: the
    /// allocated lane storage after `w`/`s` lane compaction. Both byte
    /// counts are allocations, not what the process holds: lanes are
    /// lazily zeroed, so the RSS of a tenant with few written cells can
    /// be far lower.
    pub lane_bytes_resident: u64,
    /// 1 if the tenant's sketch carries a sticky lane-overflow mark —
    /// true counter overflow was detected and its measurements must not
    /// be trusted — else 0.
    pub lane_overflows: u64,
    /// `true` iff the tenant has unpersisted state.
    pub dirty: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_payloads_decode_without_panicking() {
        assert_eq!(decode_query(&[]).unwrap(), 0);
        assert_eq!(decode_query(&encode_query(7)).unwrap(), 7);
        assert!(matches!(
            decode_query(&[1, 2, 3]),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn tenant_names_validate_at_the_boundary() {
        assert!(valid_tenant("alpha-7_b"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant("-leading-dash"));
        assert!(!valid_tenant("dot.dot"));
        assert!(!valid_tenant(&"x".repeat(65)));
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha", MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", MAX_FRAME).unwrap();
        write_frame(&mut buf, b"beta", MAX_FRAME).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), b"beta");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), None);
    }

    #[test]
    fn hostile_length_prefix_cannot_force_an_unbacked_allocation() {
        // Declares 4 GiB - 1 but ships 3 bytes: the reader must fail with
        // Truncated after reading what exists, not allocate the claim.
        let mut buf = (u32::MAX - 1).to_le_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let mut r = io::Cursor::new(buf);
        match read_frame(&mut r, usize::MAX) {
            Err(FrameError::Truncated { at: 7 }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
        // And over the cap it is refused before any read at all.
        let mut r = io::Cursor::new((u32::MAX - 1).to_le_bytes().to_vec());
        match read_frame(&mut r, MAX_FRAME) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, (u32::MAX - 1) as usize);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected cap refusal, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_is_distinguished_from_clean_close() {
        let mut r = io::Cursor::new(vec![7u8, 0]);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME),
            Err(FrameError::Truncated { at: 2 })
        );
    }

    /// A stream that yields its script one step at a time: `Ok(bytes)`
    /// delivers bytes, `Timeout` simulates an elapsed read timeout, and
    /// the end of the script is EOF. Models a slow peer trickling a
    /// frame across many timeout windows.
    struct Trickle {
        script: Vec<Result<Vec<u8>, ()>>,
        at: usize,
        pending: Vec<u8>,
    }

    impl Trickle {
        fn new(script: Vec<Result<Vec<u8>, ()>>) -> Self {
            Trickle {
                script,
                at: 0,
                pending: Vec::new(),
            }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pending.is_empty() {
                match self.script.get(self.at) {
                    None => return Ok(0),
                    Some(Err(())) => {
                        self.at += 1;
                        return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
                    }
                    Some(Ok(bytes)) => {
                        self.pending = bytes.clone();
                        self.at += 1;
                    }
                }
            }
            let n = self.pending.len().min(buf.len());
            buf[..n].copy_from_slice(&self.pending[..n]);
            self.pending.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_header_and_mid_body() {
        // One 5-byte frame delivered as: 2 header bytes, timeout, the
        // other 2 header bytes, timeout, 3 body bytes, timeout, the last
        // 2 body bytes. read_frame would drop this client at the first
        // mid-frame timeout; FrameReader must ride through all three.
        let mut framed = Vec::new();
        write_frame(&mut framed, b"alpha", MAX_FRAME).unwrap();
        let mut r = Trickle::new(vec![
            Ok(framed[..2].to_vec()),
            Err(()),
            Ok(framed[2..4].to_vec()),
            Err(()),
            Ok(framed[4..7].to_vec()),
            Err(()),
            Ok(framed[7..].to_vec()),
        ]);
        let mut reader = FrameReader::new();
        let mut idle_ticks = 0;
        let body = loop {
            match reader.read(&mut r, MAX_FRAME) {
                Ok(Some(body)) => break body,
                Err(FrameError::Idle) => idle_ticks += 1,
                other => panic!("expected progress or Idle, got {other:?}"),
            }
        };
        assert_eq!(body, b"alpha");
        assert_eq!(idle_ticks, 3, "every timeout surfaced as a resumable Idle");
        assert!(!reader.mid_frame(), "reader is back at a frame boundary");
        // EOF after the complete frame is a clean close.
        assert_eq!(reader.read(&mut r, MAX_FRAME).unwrap(), None);
    }

    #[test]
    fn frame_reader_reports_mid_frame_across_idle_ticks() {
        let mut r = Trickle::new(vec![Err(()), Ok(vec![5, 0]), Err(())]);
        let mut reader = FrameReader::new();
        // Timeout before any byte: an idle boundary, not a partial frame.
        assert_eq!(reader.read(&mut r, MAX_FRAME), Err(FrameError::Idle));
        assert!(!reader.mid_frame());
        // Two header bytes then a timeout: partial progress retained.
        assert_eq!(reader.read(&mut r, MAX_FRAME), Err(FrameError::Idle));
        assert!(reader.mid_frame());
        // EOF mid-header is a truncation naming the bytes that arrived.
        assert_eq!(
            reader.read(&mut r, MAX_FRAME),
            Err(FrameError::Truncated { at: 2 })
        );
    }

    #[test]
    fn stateless_read_frame_maps_mid_frame_timeout_to_io() {
        // The stateless helper has nowhere to park partial bytes, so a
        // timeout inside a frame must not masquerade as a healthy Idle.
        let mut r = Trickle::new(vec![Ok(vec![5, 0]), Err(())]);
        match read_frame(&mut r, MAX_FRAME) {
            Err(FrameError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
        let mut r = Trickle::new(vec![Err(())]);
        assert_eq!(read_frame(&mut r, MAX_FRAME), Err(FrameError::Idle));
    }

    #[test]
    fn oversized_write_is_refused_locally() {
        let mut buf = Vec::new();
        assert_eq!(
            write_frame(&mut buf, &[0u8; 16], 15),
            Err(FrameError::TooLarge {
                declared: 16,
                max: 15
            })
        );
        assert!(buf.is_empty(), "nothing was written");
    }

    #[test]
    fn request_envelopes_round_trip_for_every_opcode() {
        for (i, op) in Opcode::ALL.into_iter().enumerate() {
            let req = Request {
                corr: 0xFEED_0000 + i as u64,
                op,
                tenant: "tenant-7".into(),
                payload: vec![1, 2, 3, i as u8],
            };
            assert_eq!(Request::decode(req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_envelopes_round_trip_for_every_shape() {
        let shapes = vec![
            Response::Ok {
                corr: 1,
                payload: b"answer".to_vec(),
            },
            Response::Ok {
                corr: 2,
                payload: Vec::new(),
            },
            Response::Busy {
                corr: 3,
                retry_after_ms: 25,
            },
        ];
        for resp in shapes {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
        for code in ErrCode::ALL {
            let resp = Response::Err {
                corr: 9,
                code,
                msg: format!("refused: {code}"),
            };
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn hostile_envelopes_are_typed_errors_never_panics() {
        // Empty body, bad version, unknown opcode, tenant length past the
        // body, non-UTF-8 tenant, unknown status, unknown error code,
        // trailing bytes on BUSY: all Malformed/Truncated/Version, no panic.
        assert!(matches!(
            Request::decode(&[]),
            Err(FrameError::Truncated { .. })
        ));
        assert_eq!(
            Request::decode(&[9, 0]),
            Err(FrameError::Version { found: 9 })
        );
        let mut unknown_op = Request {
            corr: 0,
            op: Opcode::Ping,
            tenant: String::new(),
            payload: Vec::new(),
        }
        .encode();
        unknown_op[1] = 200;
        assert!(matches!(
            Request::decode(&unknown_op),
            Err(FrameError::Malformed(_))
        ));
        let mut long_tenant = Request {
            corr: 0,
            op: Opcode::Ping,
            tenant: "ab".into(),
            payload: Vec::new(),
        }
        .encode();
        let at = long_tenant.len() - 4; // tenant_len field
        long_tenant[at] = 0xFF;
        assert!(matches!(
            Request::decode(&long_tenant),
            Err(FrameError::Truncated { .. })
        ));
        let mut bad_utf8 = Request {
            corr: 0,
            op: Opcode::Ping,
            tenant: "ab".into(),
            payload: Vec::new(),
        }
        .encode();
        let end = bad_utf8.len();
        bad_utf8[end - 1] = 0xFF;
        assert!(matches!(
            Request::decode(&bad_utf8),
            Err(FrameError::Malformed(_))
        ));
        let mut bad_status = Response::Ok {
            corr: 0,
            payload: Vec::new(),
        }
        .encode();
        bad_status[1] = 7;
        assert!(matches!(
            Response::decode(&bad_status),
            Err(FrameError::Malformed(_))
        ));
        let mut bad_code = Response::Err {
            corr: 0,
            code: ErrCode::Wire,
            msg: String::new(),
        }
        .encode();
        bad_code[10] = 0xEE;
        bad_code[11] = 0xEE;
        assert!(matches!(
            Response::decode(&bad_code),
            Err(FrameError::Malformed(_))
        ));
        let mut busy_trailing = Response::Busy {
            corr: 0,
            retry_after_ms: 1,
        }
        .encode();
        busy_trailing.push(0);
        assert!(matches!(
            Response::decode(&busy_trailing),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn tenant_names_are_path_safe() {
        for good in ["a", "t7", "graph-7", "A_b-c", &"x".repeat(64)] {
            assert!(valid_tenant(good), "{good:?} should be legal");
        }
        for bad in [
            "",
            ".",
            "..",
            "a/b",
            "-lead",
            "_lead",
            ".hidden",
            "sp ace",
            "dot.state",
            "uni😀",
            &"x".repeat(65),
        ] {
            assert!(!valid_tenant(bad), "{bad:?} should be refused");
        }
    }

    #[test]
    fn update_batches_round_trip_and_reject_damage() {
        let ups = vec![
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::delete(5, 2),
            EdgeUpdate {
                u: 3,
                v: 4,
                delta: -7,
            },
        ];
        let bytes = encode_updates(&ups);
        assert_eq!(decode_updates(&bytes).unwrap(), ups);
        // Truncation, trailing bytes, a count the payload cannot back,
        // and a foreign magic are all typed refusals.
        assert!(matches!(
            decode_updates(&bytes[..bytes.len() - 3]),
            Err(FrameError::Truncated { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.push(9);
        assert!(matches!(
            decode_updates(&trailing),
            Err(FrameError::Malformed(_))
        ));
        let mut absurd = UPDATES_MAGIC.to_vec();
        absurd.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_updates(&absurd),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            decode_updates(b"AGMSKD2\nxxxx"),
            Err(FrameError::Malformed(_))
        ));
        assert_eq!(decode_updates(&encode_updates(&[])).unwrap(), vec![]);
    }

    #[test]
    fn query_payloads_round_trip() {
        assert_eq!(decode_query(&encode_query(0)).unwrap(), 0);
        assert_eq!(decode_query(&encode_query(8)).unwrap(), 8);
        assert_eq!(decode_query(&[]).unwrap(), 0);
        assert!(matches!(
            decode_query(&[1, 2, 3]),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn err_code_maps_preserve_the_wire_taxonomy() {
        use crate::api::{SketchSpec, SketchTask};
        assert_eq!(ErrCode::from_wire(&WireError::BadMagic), ErrCode::Wire);
        assert_eq!(
            ErrCode::from_wire(&WireError::Spec(SpecError::TooFewVertices { n: 1 })),
            ErrCode::Spec
        );
        let spec = SketchSpec::new(SketchTask::Connectivity, 4);
        let other = SketchSpec::new(SketchTask::Connectivity, 5);
        assert_eq!(
            ErrCode::from_wire(&WireError::SpecMismatch {
                left: Box::new(spec),
                right: Box::new(other),
            }),
            ErrCode::Wire
        );
    }

    #[test]
    fn service_stats_round_trip_as_json() {
        use serde::{Deserialize, Serialize, Value};
        let stats = ServiceStats {
            tenants: 2,
            connections: 3,
            frames_served: 99,
            worker_budget: 8,
            workers_claimed: 5,
            per_tenant: vec![TenantStats {
                name: "t1".into(),
                task: "connectivity".into(),
                n: 100,
                updates_ingested: 1000,
                deltas_applied: 4,
                busy_rejections: 1,
                decode_cache_hits: 700,
                decode_cache_invalidations: 12,
                cached_answer_ns: 48_000,
                workers: 2,
                bytes_resident: 1 << 20,
                lane_bytes_resident: 3 << 18,
                lane_overflows: 0,
                dirty: true,
            }],
        };
        let json = stats.to_value().to_json();
        let back = ServiceStats::from_value(&Value::from_json(&json).unwrap()).unwrap();
        assert_eq!(back, stats);
    }
}
