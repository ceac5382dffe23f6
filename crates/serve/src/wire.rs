//! The shard wire protocol: length-prefixed frames (JSON or compact
//! binary) and the typed request/response messages that cross them.
//!
//! # Framing
//!
//! One frame is a 4-byte big-endian payload length followed by exactly that
//! many payload bytes.  The payload's first byte selects the encoding:
//! [`binary::MAGIC`] (`0xB3`) marks the protocol-3
//! compact binary codec ([`crate::binary`]); anything else is UTF-8 JSON
//! (the [`crate::json`] emitter's pretty form — deterministic, so a frame
//! for a given message is byte-stable).  Receivers dispatch per frame, so
//! mixed-encoding peers interoperate without per-connection state.  Frames
//! larger than [`MAX_FRAME_BYTES`] are rejected on both sides, bounding
//! what a malformed or hostile peer can make the other side allocate.
//!
//! # Messages
//!
//! Requests carry a client-chosen `id` that the response echoes, so a
//! connection can be used for many sequential request/response exchanges
//! (shown here in their JSON form):
//!
//! ```text
//! {"id": 1, "kind": "hello"}                      → backends + protocol version
//! {"id": 2, "kind": "supports", "backend", "spec"} → {"supported": bool}
//! {"id": 3, "kind": "evaluate", "backend", "spec"} → {"report"} | {"error"}
//! {"id": 4, "kind": "evaluate_batch", "backend", "specs"} → {"results": [...]}
//! {"id": 5, "kind": "stats"}                       → {"stats": {...}}
//! ```
//!
//! An `"ok": false` response with a `"message"` reports a protocol-level
//! failure (unparseable frame, unknown request kind, unknown backend name);
//! evaluation failures are *domain* results and travel as structured
//! [`EvalError`] documents inside an `"ok": true` response.
//!
//! # Protocol version
//!
//! Both sides speak exactly [`PROTOCOL_VERSION`]; there is no negotiation
//! down to an older version.  The handshake is a `hello` carrying the
//! client's version, answered with the shard's.
//! A shard answers a `hello` whose version differs from its own (a missing
//! field reads as version 0) with a `Rejected` naming both versions, and a
//! client whose shard advertises a different version fails the handshake
//! with [`WireError::ProtocolMismatch`], which names both too.  A version
//! mismatch is never a downgrade.
//!
//! What a v8 connection carries:
//!
//! * `evaluate_batch` — one frame with a whole micro-batch of specs,
//!   answered by one frame of results in order;
//! * the compact binary codec ([`binary::MAGIC`], `0xB3`) beside JSON.
//!   A client under the `auto` policy sends its `hello` in JSON and
//!   switches to binary once the handshake succeeds; servers answer every
//!   request in the encoding it arrived in, unless forced otherwise (see
//!   [`EncodingPolicy`](crate::config::EncodingPolicy));
//! * an optional shared-memory ring offer in the hello response (see
//!   [`crate::shm`]);
//! * an optional per-connection credit `window` in the hello response.  A
//!   reactor-fronted shard advertises one to every matching client; only
//!   then may responses complete **out of order** (matched by the echoed
//!   request id) and may the client send `cancel` frames.  Connections
//!   without a window keep the strict-FIFO one-response-per-request
//!   discipline;
//! * per-connection symbol dictionaries and bitmap-compact report framing
//!   ([`binary::DICT_MAGIC`], `0xB7`).  A dictionary frame reads and writes
//!   *connection state* — the per-direction symbol tables that resolve
//!   label ids — so the stateless entry points here never emit or accept
//!   one: [`write_request_frame`] treats [`WireEncoding::BinaryDict`] as
//!   plain binary, and the plain decoders reject `0xB7` payloads outright.
//!   Connection owners (the pool, the reactor, the threads front end)
//!   thread their [`binary::TxSymbols`]/[`binary::RxSymbols`] halves
//!   through the `_dict` variants instead;
//! * stats documents whose pool records carry 15 counters (v7 carried 20,
//!   so a v7 peer is refused at `hello`, not at a stats decode).

use crate::binary;
use crate::json::{self, DecodeError, JsonParseError, JsonValue};
use crate::stats::ServiceStats;
use rsn_eval::{EvalError, EvalReport, WorkloadSpec};
use std::io::{Read, Write};
use std::sync::Arc;

/// A domain result shared rather than copied: the report cache, the
/// response slots, and the wire layer all hand out clones of one `Arc`, so
/// serving or shipping a cached report never deep-copies it.
pub type SharedResult = Arc<Result<EvalReport, EvalError>>;

/// Upper bound on one frame's payload, sized generously above the largest
/// document the service emits (a full-model report is a few tens of KiB).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// The shard protocol version this build speaks, and the only one it
/// accepts from a peer (see the module docs for what version 8 carries).
/// The `hello` exchange carries it both ways; a peer that sends any other
/// version gets a protocol-mismatch error naming both.
pub const PROTOCOL_VERSION: u64 = 8;

/// The text of a version mismatch, seen from side `us` (which speaks
/// [`PROTOCOL_VERSION`]) after side `them` sent `version`.  Shards answer a
/// wrong-version `hello` with it as a `Rejected`; clients report it as
/// [`WireError::ProtocolMismatch`].  It names both versions, so either
/// side's log says what to upgrade.
pub(crate) fn protocol_mismatch(us: &str, them: &str, version: u64) -> String {
    format!("protocol mismatch: {us} speaks {PROTOCOL_VERSION}, {them} sent {version}")
}

/// The encoding of one frame on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireEncoding {
    /// Pretty-printed JSON (the readable debugging encoding, and what an
    /// `auto` client sends before its handshake).
    Json,
    /// The compact binary codec.
    Binary,
    /// The binary codec with per-connection symbol dictionaries and bitmap
    /// report frames.  Stateful: frames in this encoding
    /// must travel through the `_dict` functions with the connection's
    /// symbol tables; the stateless writers fall back to plain binary.
    BinaryDict,
}

/// A transport-layer failure: the connection died, a frame was malformed,
/// or a peer spoke something that is not the shard protocol.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// A frame exceeded [`MAX_FRAME_BYTES`]; carries the offending length
    /// (wider than `u32` so encode-side overflows report the real payload
    /// size instead of a saturated sentinel).
    FrameTooLarge(u64),
    /// A frame's payload was not valid JSON.
    Parse(JsonParseError),
    /// A frame's JSON did not decode into the expected message.
    Decode(DecodeError),
    /// The peer answered with a protocol-level failure.
    Rejected(String),
    /// The shard's `hello` answer advertised this protocol version, which
    /// is not [`PROTOCOL_VERSION`].
    ProtocolMismatch(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::FrameTooLarge(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte bound"
                )
            }
            WireError::Parse(e) => write!(f, "malformed frame: {e}"),
            WireError::Decode(e) => write!(f, "unexpected frame: {e}"),
            WireError::Rejected(message) => write!(f, "peer rejected the request: {message}"),
            WireError::ProtocolMismatch(version) => {
                f.write_str(&protocol_mismatch("client", "shard", *version))
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<JsonParseError> for WireError {
    fn from(e: JsonParseError) -> Self {
        WireError::Parse(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

/// Writes one length-prefixed JSON frame.
pub fn write_frame(writer: &mut impl Write, doc: &JsonValue) -> Result<(), WireError> {
    let mut frame = Vec::new();
    begin_frame(&mut frame);
    frame.extend_from_slice(doc.to_pretty().as_bytes());
    write_framed(writer, &mut frame).map(|_| ())
}

/// Reads one length-prefixed JSON frame.  A clean EOF *before* the length
/// prefix returns `Ok(None)` (the peer closed an idle connection); EOF
/// mid-frame is an error.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<JsonValue>, WireError> {
    let mut payload = Vec::new();
    if read_payload(reader, &mut payload)?.is_none() {
        return Ok(None);
    }
    parse_json_payload(&payload).map(Some)
}

/// Reads one frame's payload bytes into `scratch` (cleared and reused — no
/// per-frame buffer allocation once the scratch has grown to the working
/// set).  `Ok(None)` is a clean EOF before the length prefix.
fn read_payload(reader: &mut impl Read, scratch: &mut Vec<u8>) -> Result<Option<()>, WireError> {
    let mut prefix = [0u8; 4];
    match reader.read(&mut prefix)? {
        0 => return Ok(None),
        mut filled => {
            while filled < prefix.len() {
                let n = reader.read(&mut prefix[filled..])?;
                if n == 0 {
                    return Err(WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed inside a frame length prefix",
                    )));
                }
                filled += n;
            }
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(u64::from(len)));
    }
    read_exact_growing(reader, scratch, len as usize)?;
    Ok(Some(()))
}

/// Granularity of payload-buffer growth: large enough that an honest
/// frame's read loop stays short, small enough that a spoofed prefix
/// cannot commit real memory it never backs with bytes.
const PAYLOAD_GROW_STEP: usize = 256 * 1024;

/// Reads exactly `len` bytes into `buf` (cleared first), growing the
/// buffer in [`PAYLOAD_GROW_STEP`] increments *as the bytes arrive*.  The
/// length prefix is attacker-controlled: committing the whole allocation
/// up front would let a hostile peer pin [`MAX_FRAME_BYTES`] of memory per
/// connection by sending nothing but a 4-byte prefix, so the allocation is
/// kept proportional to what the peer actually delivered.
fn read_exact_growing(
    reader: &mut impl Read,
    buf: &mut Vec<u8>,
    len: usize,
) -> std::io::Result<()> {
    buf.clear();
    let mut filled = 0;
    while filled < len {
        let target = len.min(filled + PAYLOAD_GROW_STEP);
        buf.resize(target, 0);
        reader.read_exact(&mut buf[filled..target])?;
        filled = target;
    }
    Ok(())
}

/// Frames the buffer prepared by [`begin_frame`] (4-byte placeholder,
/// then the payload): patches the length prefix in place and puts the
/// whole frame on the wire in **one** `write` — one syscall per frame
/// instead of two, and with `TCP_NODELAY` one segment instead of a
/// prefix-only runt packet.  Returns the total bytes written.
fn write_framed(writer: &mut impl Write, scratch: &mut [u8]) -> Result<u64, WireError> {
    let payload = scratch.len() - 4;
    if payload as u64 > u64::from(MAX_FRAME_BYTES) {
        return Err(WireError::FrameTooLarge(payload as u64));
    }
    let len = payload as u32;
    scratch[..4].copy_from_slice(&len.to_be_bytes());
    writer.write_all(scratch)?;
    writer.flush()?;
    Ok(u64::from(len) + 4)
}

/// Resets `scratch` to a 4-byte length-prefix placeholder; the encoders
/// append the payload behind it, so no post-encode memmove is needed.
fn begin_frame(scratch: &mut Vec<u8>) {
    scratch.clear();
    scratch.extend_from_slice(&[0u8; 4]);
}

/// Parses a JSON payload (already read off the wire) into a document.
fn parse_json_payload(payload: &[u8]) -> Result<JsonValue, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
    Ok(json::parse(text)?)
}

/// Writes one request frame in the given encoding, reusing `scratch` for
/// the binary image.  Returns the bytes put on the wire.
pub fn write_request_frame(
    writer: &mut impl Write,
    id: u64,
    request: &ShardRequest,
    encoding: WireEncoding,
    scratch: &mut Vec<u8>,
) -> Result<u64, WireError> {
    begin_frame(scratch);
    match encoding {
        // Stateless entry point: without the connection's symbol tables,
        // BinaryDict degrades to the plain image, which every peer
        // decodes.  Dictionary frames go through
        // [`write_request_frame_dict`].
        WireEncoding::Binary | WireEncoding::BinaryDict => {
            binary::encode_request(scratch, id, request)
        }
        WireEncoding::Json => {
            scratch.extend_from_slice(request.to_json(id).to_pretty().as_bytes());
        }
    }
    write_framed(writer, scratch)
}

/// Writes one request frame against the connection's transmit-side symbol
/// table.  Only meaningful with [`WireEncoding::BinaryDict`]; other
/// encodings behave exactly like [`write_request_frame`] (the table is
/// untouched).  Returns the bytes put on the wire.
pub fn write_request_frame_dict(
    writer: &mut impl Write,
    id: u64,
    request: &ShardRequest,
    encoding: WireEncoding,
    scratch: &mut Vec<u8>,
    tx: &mut binary::TxSymbols,
) -> Result<u64, WireError> {
    if encoding != WireEncoding::BinaryDict {
        return write_request_frame(writer, id, request, encoding, scratch);
    }
    begin_frame(scratch);
    binary::encode_request_dict(scratch, id, request, tx);
    write_framed(writer, scratch)
}

/// Writes one response frame in the given encoding, reusing `scratch` for
/// the binary image.  Returns the bytes put on the wire.
pub fn write_response_frame(
    writer: &mut impl Write,
    id: u64,
    response: &ShardResponse,
    encoding: WireEncoding,
    scratch: &mut Vec<u8>,
) -> Result<u64, WireError> {
    begin_frame(scratch);
    match encoding {
        // Stateless fallback — see [`write_request_frame`].
        WireEncoding::Binary | WireEncoding::BinaryDict => {
            binary::encode_response(scratch, id, response)
        }
        WireEncoding::Json => {
            scratch.extend_from_slice(response.to_json(id).to_pretty().as_bytes());
        }
    }
    write_framed(writer, scratch)
}

/// Writes one response frame against the connection's transmit-side symbol
/// table — the server-side counterpart of [`write_request_frame_dict`].
pub fn write_response_frame_dict(
    writer: &mut impl Write,
    id: u64,
    response: &ShardResponse,
    encoding: WireEncoding,
    scratch: &mut Vec<u8>,
    tx: &mut binary::TxSymbols,
) -> Result<u64, WireError> {
    if encoding != WireEncoding::BinaryDict {
        return write_response_frame(writer, id, response, encoding, scratch);
    }
    begin_frame(scratch);
    binary::encode_response_dict(scratch, id, response, tx);
    write_framed(writer, scratch)
}

/// Reads and decodes one request frame, dispatching on the payload's
/// leading byte.  Returns the exchange id, the request, the encoding it
/// arrived in (so servers can mirror it), and the bytes taken off the
/// wire; `Ok(None)` is a clean EOF before the length prefix.
pub fn read_request_frame(
    reader: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<(u64, ShardRequest, WireEncoding, u64)>, WireError> {
    if read_payload(reader, scratch)?.is_none() {
        return Ok(None);
    }
    let bytes = scratch.len() as u64 + 4;
    let (id, request, encoding) = decode_request_payload(scratch)?;
    Ok(Some((id, request, encoding, bytes)))
}

/// The error of a [`binary::DICT_MAGIC`] payload reaching a stateless
/// decoder, which has no symbol table to resolve it against.
fn stateless_dict_frame(context: &str) -> WireError {
    WireError::Decode(DecodeError {
        context: context.to_string(),
        message: "dictionary frame on a connection without dictionary state".to_string(),
    })
}

/// Decodes one request payload (already stripped of its length prefix),
/// dispatching on the leading byte.  The frame-draining server loop uses
/// this directly on payloads extracted from a [`FrameBuffer`].
pub fn decode_request_payload(
    payload: &[u8],
) -> Result<(u64, ShardRequest, WireEncoding), WireError> {
    if payload.first() == Some(&binary::DICT_MAGIC) {
        return Err(stateless_dict_frame("ShardRequest"));
    }
    if payload.first() == Some(&binary::MAGIC) {
        let (id, request) = binary::decode_request(payload)?;
        Ok((id, request, WireEncoding::Binary))
    } else {
        let (id, request) = ShardRequest::from_json(&parse_json_payload(payload)?)?;
        Ok((id, request, WireEncoding::Json))
    }
}

/// Decodes one request payload against the connection's receive-side
/// symbol table, accepting all three encodings.  Frames that are not
/// [`binary::DICT_MAGIC`] leave the table untouched — plain and dictionary
/// frames interleave freely on a negotiated connection.
pub fn decode_request_payload_dict(
    payload: &[u8],
    rx: &mut binary::RxSymbols,
) -> Result<(u64, ShardRequest, WireEncoding), WireError> {
    if payload.first() == Some(&binary::DICT_MAGIC) {
        let (id, request) = binary::decode_request_dict(payload, rx)?;
        Ok((id, request, WireEncoding::BinaryDict))
    } else {
        decode_request_payload(payload)
    }
}

/// Reads and decodes one response frame, dispatching on the payload's
/// leading byte.  Returns the exchange id, the response and the bytes
/// taken off the wire; `Ok(None)` is a clean EOF before the length prefix.
pub fn read_response_frame(
    reader: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<(u64, ShardResponse, u64)>, WireError> {
    if read_payload(reader, scratch)?.is_none() {
        return Ok(None);
    }
    let bytes = scratch.len() as u64 + 4;
    let (id, response) = decode_response_payload(scratch)?;
    Ok(Some((id, response, bytes)))
}

/// Reads and decodes one response frame against the connection's
/// receive-side symbol table — the stateful counterpart of
/// [`read_response_frame`] for dictionary-negotiated connections.
pub fn read_response_frame_dict(
    reader: &mut impl Read,
    scratch: &mut Vec<u8>,
    rx: &mut binary::RxSymbols,
) -> Result<Option<(u64, ShardResponse, u64)>, WireError> {
    if read_payload(reader, scratch)?.is_none() {
        return Ok(None);
    }
    let bytes = scratch.len() as u64 + 4;
    let (id, response) = decode_response_payload_dict(scratch, rx)?;
    Ok(Some((id, response, bytes)))
}

/// Decodes one response payload (already stripped of its length prefix),
/// dispatching on the leading byte.  The client-side multiplexer uses this
/// directly on payloads extracted from a [`FrameBuffer`], where responses
/// arrive out of request order and are routed by id.
pub fn decode_response_payload(payload: &[u8]) -> Result<(u64, ShardResponse), WireError> {
    if payload.first() == Some(&binary::DICT_MAGIC) {
        return Err(stateless_dict_frame("ShardResponse"));
    }
    if payload.first() == Some(&binary::MAGIC) {
        Ok(binary::decode_response(payload)?)
    } else {
        Ok(ShardResponse::from_json(&parse_json_payload(payload)?)?)
    }
}

/// Decodes one response payload against the connection's receive-side
/// symbol table, accepting all three encodings — the multiplexer's
/// counterpart of [`decode_response_payload`].
pub fn decode_response_payload_dict(
    payload: &[u8],
    rx: &mut binary::RxSymbols,
) -> Result<(u64, ShardResponse), WireError> {
    if payload.first() == Some(&binary::DICT_MAGIC) {
        Ok(binary::decode_response_dict(payload, rx)?)
    } else {
        decode_response_payload(payload)
    }
}

/// Accumulates wire bytes and slices them back into frames, so a receiver
/// can take *every* complete frame one `read` delivered instead of issuing
/// one syscall pair per frame.  This is what lets a shard server drain a
/// client's coalesced burst: read once, answer everything that arrived.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// How much free space [`FrameBuffer::fill`] guarantees before reading —
/// large enough that a burst of typical frames lands in one syscall.
const FILL_CHUNK: usize = 256 * 1024;

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unconsumed buffered bytes (complete frames plus any partial tail).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Issues **one** `read` into the buffer, compacting consumed bytes
    /// first.  Returns the byte count (0 is EOF); `WouldBlock`/timeout
    /// errors pass through for the caller's idle handling.
    pub fn fill(&mut self, reader: &mut impl Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + FILL_CHUNK {
            self.buf.resize(self.end + FILL_CHUNK, 0);
        }
        let n = reader.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Extracts the next complete frame's payload into `scratch` (cleared
    /// first).  `Ok(false)` means no complete frame is buffered yet; a
    /// length prefix over [`MAX_FRAME_BYTES`] is an error.  Returns the
    /// frame's total wire size (prefix included) via `scratch.len() + 4`.
    pub fn take_frame(&mut self, scratch: &mut Vec<u8>) -> Result<bool, WireError> {
        if self.buffered() < 4 {
            return Ok(false);
        }
        let prefix: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4 bytes checked");
        let len = u32::from_be_bytes(prefix);
        if len > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge(u64::from(len)));
        }
        let total = 4 + len as usize;
        if self.buffered() < total {
            return Ok(false);
        }
        scratch.clear();
        scratch.extend_from_slice(&self.buf[self.start + 4..self.start + total]);
        self.start += total;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(true)
    }
}

/// One request a client can make of a shard server.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRequest {
    /// "Which backends do you host?"  Carries the *client's* protocol
    /// version, which must equal the shard's (see [`PROTOCOL_VERSION`]).
    Hello {
        /// The client's [`PROTOCOL_VERSION`] (0 when a JSON hello carries
        /// no version field, which no shard accepts).
        protocol: u64,
    },
    /// "Can `backend` structurally evaluate `spec`?"
    Supports {
        /// Backend shard name.
        backend: String,
        /// The workload in question.
        spec: WorkloadSpec,
    },
    /// "Evaluate `spec` on `backend`."
    Evaluate {
        /// Backend shard name.
        backend: String,
        /// The workload to evaluate.
        spec: WorkloadSpec,
    },
    /// "Evaluate every spec on `backend`, answer once with every result."
    /// One pipelined exchange per micro-batch instead of one per spec.
    EvaluateBatch {
        /// Backend shard name.
        backend: String,
        /// The workloads to evaluate, answered in this order.
        specs: Vec<WorkloadSpec>,
    },
    /// "How busy have you been?"
    Stats,
    /// "Forget request `target` if you have not answered it yet."  Best
    /// effort and fire-and-forget: the server sends no reply to a cancel,
    /// and may still answer the target if it already completed — the
    /// client resolves the waiter locally and tolerates the late response.
    /// Only meaningful on a multiplexed (windowed) connection.
    Cancel {
        /// The id of the in-flight request to abandon.
        target: u64,
    },
}

impl ShardRequest {
    /// Encodes the request with its exchange id.
    pub fn to_json(&self, id: u64) -> JsonValue {
        let mut pairs = vec![("id".to_string(), JsonValue::Int(id))];
        match self {
            ShardRequest::Hello { protocol } => {
                pairs.push(("kind".to_string(), JsonValue::Str("hello".to_string())));
                pairs.push(("protocol".to_string(), JsonValue::Int(*protocol)));
            }
            ShardRequest::Supports { backend, spec } => {
                pairs.push(("kind".to_string(), JsonValue::Str("supports".to_string())));
                pairs.push(("backend".to_string(), JsonValue::Str(backend.clone())));
                pairs.push(("spec".to_string(), json::workload_spec_json(spec)));
            }
            ShardRequest::Evaluate { backend, spec } => {
                pairs.push(("kind".to_string(), JsonValue::Str("evaluate".to_string())));
                pairs.push(("backend".to_string(), JsonValue::Str(backend.clone())));
                pairs.push(("spec".to_string(), json::workload_spec_json(spec)));
            }
            ShardRequest::EvaluateBatch { backend, specs } => {
                pairs.push((
                    "kind".to_string(),
                    JsonValue::Str("evaluate_batch".to_string()),
                ));
                pairs.push(("backend".to_string(), JsonValue::Str(backend.clone())));
                pairs.push((
                    "specs".to_string(),
                    JsonValue::Arr(specs.iter().map(json::workload_spec_json).collect()),
                ));
            }
            ShardRequest::Stats => {
                pairs.push(("kind".to_string(), JsonValue::Str("stats".to_string())));
            }
            ShardRequest::Cancel { target } => {
                pairs.push(("kind".to_string(), JsonValue::Str("cancel".to_string())));
                pairs.push(("target".to_string(), JsonValue::Int(*target)));
            }
        }
        JsonValue::Obj(pairs)
    }

    /// Decodes a request frame into `(id, request)`.
    pub fn from_json(doc: &JsonValue) -> Result<(u64, Self), DecodeError> {
        const CTX: &str = "ShardRequest";
        let id = match doc.get("id") {
            Some(JsonValue::Int(id)) => *id,
            _ => {
                return Err(DecodeError {
                    context: CTX.to_string(),
                    message: "missing integer `id`".to_string(),
                })
            }
        };
        let kind = match doc.get("kind") {
            Some(JsonValue::Str(kind)) => kind.as_str(),
            _ => {
                return Err(DecodeError {
                    context: CTX.to_string(),
                    message: "missing string `kind`".to_string(),
                })
            }
        };
        let backend_name = || -> Result<String, DecodeError> {
            match doc.get("backend") {
                Some(JsonValue::Str(name)) => Ok(name.clone()),
                _ => Err(DecodeError {
                    context: CTX.to_string(),
                    message: "missing string `backend`".to_string(),
                }),
            }
        };
        let backend_and_spec = || -> Result<(String, WorkloadSpec), DecodeError> {
            let backend = backend_name()?;
            let spec = doc.get("spec").ok_or_else(|| DecodeError {
                context: CTX.to_string(),
                message: "missing `spec`".to_string(),
            })?;
            Ok((backend, json::workload_spec_from_json(spec)?))
        };
        let request = match kind {
            // A hello without a version field is a mismatch (version 0),
            // answered as such rather than refused as malformed.
            "hello" => ShardRequest::Hello {
                protocol: match doc.get("protocol") {
                    Some(JsonValue::Int(version)) => *version,
                    _ => 0,
                },
            },
            "supports" => {
                let (backend, spec) = backend_and_spec()?;
                ShardRequest::Supports { backend, spec }
            }
            "evaluate" => {
                let (backend, spec) = backend_and_spec()?;
                ShardRequest::Evaluate { backend, spec }
            }
            "evaluate_batch" => {
                let backend = backend_name()?;
                let specs = match doc.get("specs") {
                    Some(JsonValue::Arr(items)) => items
                        .iter()
                        .map(json::workload_spec_from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => {
                        return Err(DecodeError {
                            context: CTX.to_string(),
                            message: "missing array `specs`".to_string(),
                        })
                    }
                };
                ShardRequest::EvaluateBatch { backend, specs }
            }
            "stats" => ShardRequest::Stats,
            "cancel" => ShardRequest::Cancel {
                target: match doc.get("target") {
                    Some(JsonValue::Int(target)) => *target,
                    _ => {
                        return Err(DecodeError {
                            context: CTX.to_string(),
                            message: "missing integer `target`".to_string(),
                        })
                    }
                },
            },
            other => {
                return Err(DecodeError {
                    context: CTX.to_string(),
                    message: format!("unknown request kind `{other}`"),
                })
            }
        };
        Ok((id, request))
    }
}

/// One answer a shard server sends back.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardResponse {
    /// The backends this shard hosts, in registration order, and the
    /// protocol version the shard speaks.
    Backends {
        /// Hosted backend names, in registration order.
        names: Vec<String>,
        /// The shard's [`PROTOCOL_VERSION`].
        protocol: u64,
        /// Path of a shared-memory ring segment this connection may switch
        /// to (see [`crate::shm`]); `None` when the shard does not offer
        /// one (different host, transport disabled, or a reactor shard).
        ring: Option<String>,
        /// Per-connection credit window for multiplexed requests: how many
        /// requests may be in flight on this connection at once, answered
        /// out of order and cancellable.  `None` when the connection stays
        /// strict-FIFO (a thread-frontend shard).  Advertising a window is
        /// the server's "multiplexing is on" signal.
        window: Option<u64>,
    },
    /// Whether the asked backend supports the asked spec.
    Supported(bool),
    /// The evaluation's domain result, `Arc`-shared with the producing
    /// service's report cache so answering a request never deep-copies the
    /// report.
    Evaluated(SharedResult),
    /// One domain result per spec of an `evaluate_batch` request, in the
    /// request's spec order (shared, like [`Evaluated`](Self::Evaluated)).
    EvaluatedBatch(Vec<SharedResult>),
    /// The shard's service statistics.
    Stats(ServiceStats),
    /// A protocol-level rejection (unknown backend/kind, malformed frame).
    Rejected(String),
}

impl ShardResponse {
    /// Encodes the response, echoing the request's exchange id.
    pub fn to_json(&self, id: u64) -> JsonValue {
        let ok = !matches!(self, ShardResponse::Rejected(_));
        let mut pairs = vec![
            ("id".to_string(), JsonValue::Int(id)),
            ("ok".to_string(), JsonValue::Bool(ok)),
        ];
        match self {
            ShardResponse::Backends {
                names,
                protocol,
                ring,
                window,
            } => {
                pairs.push((
                    "backends".to_string(),
                    JsonValue::Arr(names.iter().map(|n| JsonValue::Str(n.clone())).collect()),
                ));
                pairs.push(("protocol".to_string(), JsonValue::Int(*protocol)));
                // Both offers are emitted only when made.
                if let Some(path) = ring {
                    pairs.push(("ring".to_string(), JsonValue::Str(path.clone())));
                }
                if let Some(credits) = window {
                    pairs.push(("window".to_string(), JsonValue::Int(*credits)));
                }
            }
            ShardResponse::Supported(supported) => {
                pairs.push(("supported".to_string(), JsonValue::Bool(*supported)));
            }
            ShardResponse::Evaluated(result) => match result.as_ref() {
                Ok(report) => pairs.push(("report".to_string(), json::report_json(report))),
                Err(error) => pairs.push(("error".to_string(), json::error_json(error))),
            },
            ShardResponse::EvaluatedBatch(results) => {
                pairs.push((
                    "results".to_string(),
                    JsonValue::Arr(
                        results
                            .iter()
                            .map(|result| match result.as_ref() {
                                Ok(report) => JsonValue::Obj(vec![(
                                    "report".to_string(),
                                    json::report_json(report),
                                )]),
                                Err(error) => JsonValue::Obj(vec![(
                                    "error".to_string(),
                                    json::error_json(error),
                                )]),
                            })
                            .collect(),
                    ),
                ));
            }
            ShardResponse::Stats(stats) => {
                pairs.push(("stats".to_string(), json::stats_json(stats)));
            }
            ShardResponse::Rejected(message) => {
                pairs.push(("message".to_string(), JsonValue::Str(message.clone())));
            }
        }
        JsonValue::Obj(pairs)
    }

    /// Decodes a response frame into `(id, response)`.
    pub fn from_json(doc: &JsonValue) -> Result<(u64, Self), DecodeError> {
        const CTX: &str = "ShardResponse";
        let id = match doc.get("id") {
            Some(JsonValue::Int(id)) => *id,
            _ => {
                return Err(DecodeError {
                    context: CTX.to_string(),
                    message: "missing integer `id`".to_string(),
                })
            }
        };
        if let Some(JsonValue::Bool(false)) = doc.get("ok") {
            let message = match doc.get("message") {
                Some(JsonValue::Str(m)) => m.clone(),
                _ => "unspecified peer failure".to_string(),
            };
            return Ok((id, ShardResponse::Rejected(message)));
        }
        let response = if let Some(backends) = doc.get("backends") {
            let names = match backends {
                JsonValue::Arr(items) => items
                    .iter()
                    .map(|item| match item {
                        JsonValue::Str(s) => Ok(s.clone()),
                        _ => Err(DecodeError {
                            context: CTX.to_string(),
                            message: "backend names must be strings".to_string(),
                        }),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => {
                    return Err(DecodeError {
                        context: CTX.to_string(),
                        message: "`backends` must be an array".to_string(),
                    })
                }
            };
            // A missing version is a mismatch (version 0), like a hello
            // request's.
            let protocol = match doc.get("protocol") {
                Some(JsonValue::Int(version)) => *version,
                _ => 0,
            };
            let ring = match doc.get("ring") {
                Some(JsonValue::Str(path)) => Some(path.clone()),
                _ => None,
            };
            let window = match doc.get("window") {
                Some(JsonValue::Int(credits)) => Some(*credits),
                _ => None,
            };
            ShardResponse::Backends {
                names,
                protocol,
                ring,
                window,
            }
        } else if let Some(JsonValue::Bool(supported)) = doc.get("supported") {
            ShardResponse::Supported(*supported)
        } else if let Some(report) = doc.get("report") {
            ShardResponse::Evaluated(Arc::new(Ok(json::report_from_json(report)?)))
        } else if let Some(error) = doc.get("error") {
            ShardResponse::Evaluated(Arc::new(Err(json::error_from_json(error)?)))
        } else if let Some(results) = doc.get("results") {
            let results = match results {
                JsonValue::Arr(items) => items
                    .iter()
                    .map(|item| {
                        if let Some(report) = item.get("report") {
                            Ok(Arc::new(Ok(json::report_from_json(report)?)))
                        } else if let Some(error) = item.get("error") {
                            Ok(Arc::new(Err(json::error_from_json(error)?)))
                        } else {
                            Err(DecodeError {
                                context: CTX.to_string(),
                                message: "batch result carries neither `report` nor `error`"
                                    .to_string(),
                            })
                        }
                    })
                    .collect::<Result<Vec<SharedResult>, DecodeError>>()?,
                _ => {
                    return Err(DecodeError {
                        context: CTX.to_string(),
                        message: "`results` must be an array".to_string(),
                    })
                }
            };
            ShardResponse::EvaluatedBatch(results)
        } else if let Some(stats) = doc.get("stats") {
            ShardResponse::Stats(json::stats_from_json(stats)?)
        } else {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "response carries no recognised payload".to_string(),
            });
        };
        Ok((id, response))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let doc = ShardRequest::Evaluate {
            backend: "rsn-xnn".to_string(),
            spec: WorkloadSpec::SquareGemm { n: 1024 },
        }
        .to_json(7);
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &doc).expect("write frame");
        // 4-byte prefix holds the payload length.
        let payload_len = u32::from_be_bytes(buffer[..4].try_into().unwrap());
        assert_eq!(payload_len as usize, buffer.len() - 4);
        let read = read_frame(&mut Cursor::new(&buffer)).expect("read frame");
        assert_eq!(read, Some(doc.clone()));
        // Exchange round trip.
        let (id, request) = ShardRequest::from_json(&doc).expect("decode request");
        assert_eq!(id, 7);
        assert!(matches!(request, ShardRequest::Evaluate { .. }));
    }

    #[test]
    fn clean_eof_is_none_but_midframe_eof_is_an_error() {
        assert!(matches!(read_frame(&mut Cursor::new(&[])), Ok(None)));
        // A length prefix promising more bytes than follow.
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&100u32.to_be_bytes());
        truncated.extend_from_slice(b"short");
        assert!(matches!(
            read_frame(&mut Cursor::new(&truncated)),
            Err(WireError::Io(_))
        ));
        // Prefix itself truncated.
        assert!(matches!(
            read_frame(&mut Cursor::new(&[0u8, 0])),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&huge)),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn malformed_payload_is_a_parse_error_with_position() {
        let payload = b"{\"id\": oops}";
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buffer.extend_from_slice(payload);
        match read_frame(&mut Cursor::new(&buffer)) {
            Err(WireError::Parse(e)) => {
                assert_eq!((e.line, e.column), (1, 8));
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn every_request_and_response_round_trips() {
        let requests = [
            ShardRequest::Hello {
                protocol: PROTOCOL_VERSION,
            },
            ShardRequest::Supports {
                backend: "alpha".to_string(),
                spec: WorkloadSpec::PowerBreakdown,
            },
            ShardRequest::Evaluate {
                backend: "beta".to_string(),
                spec: WorkloadSpec::FunctionalGemm {
                    m: 8,
                    k: 4,
                    n: 8,
                    seed: 3,
                },
            },
            ShardRequest::EvaluateBatch {
                backend: "gamma".to_string(),
                specs: vec![
                    WorkloadSpec::SquareGemm { n: 64 },
                    WorkloadSpec::PowerBreakdown,
                ],
            },
            ShardRequest::Stats,
            ShardRequest::Cancel { target: 41 },
        ];
        for (id, request) in requests.into_iter().enumerate() {
            let doc = request.to_json(id as u64);
            assert_eq!(
                ShardRequest::from_json(&doc).expect("request decodes"),
                (id as u64, request)
            );
        }
        let responses = [
            ShardResponse::Backends {
                names: vec!["a".to_string(), "b".to_string()],
                protocol: PROTOCOL_VERSION,
                ring: None,
                window: None,
            },
            ShardResponse::Backends {
                names: vec!["a".to_string()],
                protocol: PROTOCOL_VERSION,
                ring: Some("/dev/shm/rsn-ring-test".to_string()),
                window: None,
            },
            ShardResponse::Backends {
                names: vec!["a".to_string()],
                protocol: PROTOCOL_VERSION,
                ring: None,
                window: Some(64),
            },
            ShardResponse::Supported(true),
            ShardResponse::Evaluated(Arc::new(Ok(EvalReport::new("a", "w")))),
            ShardResponse::Evaluated(Arc::new(Err(EvalError::Unsupported {
                backend: "a".to_string(),
                workload: "w".to_string(),
            }))),
            ShardResponse::EvaluatedBatch(vec![
                Arc::new(Ok(EvalReport::new("a", "w1"))),
                Arc::new(Err(EvalError::Unsupported {
                    backend: "a".to_string(),
                    workload: "w2".to_string(),
                })),
            ]),
            ShardResponse::Stats(ServiceStats::default()),
            ShardResponse::Rejected("unknown backend `zeta`".to_string()),
        ];
        for (id, response) in responses.into_iter().enumerate() {
            let doc = response.to_json(id as u64);
            assert_eq!(
                ShardResponse::from_json(&doc).expect("response decodes"),
                (id as u64, response)
            );
        }
    }

    #[test]
    fn typed_frames_dispatch_on_the_magic_byte() {
        let request = ShardRequest::Evaluate {
            backend: "rsn-xnn".to_string(),
            spec: WorkloadSpec::SquareGemm { n: 2048 },
        };
        let mut scratch = Vec::new();
        for encoding in [WireEncoding::Json, WireEncoding::Binary] {
            let mut buffer = Vec::new();
            let sent = write_request_frame(&mut buffer, 11, &request, encoding, &mut scratch)
                .expect("write request");
            assert_eq!(sent as usize, buffer.len());
            let (id, decoded, seen, received) =
                read_request_frame(&mut Cursor::new(&buffer), &mut scratch)
                    .expect("read request")
                    .expect("not EOF");
            assert_eq!((id, seen, received), (11, encoding, sent));
            assert_eq!(decoded, request);
        }
        let response = ShardResponse::Evaluated(Arc::new(Ok(EvalReport::new("rsn-xnn", "w"))));
        for encoding in [WireEncoding::Json, WireEncoding::Binary] {
            let mut buffer = Vec::new();
            let sent = write_response_frame(&mut buffer, 7, &response, encoding, &mut scratch)
                .expect("write response");
            let (id, decoded, received) =
                read_response_frame(&mut Cursor::new(&buffer), &mut scratch)
                    .expect("read response")
                    .expect("not EOF");
            assert_eq!((id, received), (7, sent));
            assert_eq!(decoded, response);
        }
        // Binary frames are dramatically smaller than their JSON form.
        let mut json_buf = Vec::new();
        let mut bin_buf = Vec::new();
        write_response_frame(
            &mut json_buf,
            1,
            &response,
            WireEncoding::Json,
            &mut scratch,
        )
        .expect("json");
        write_response_frame(
            &mut bin_buf,
            1,
            &response,
            WireEncoding::Binary,
            &mut scratch,
        )
        .expect("binary");
        assert!(
            bin_buf.len() * 2 < json_buf.len(),
            "binary {} vs json {}",
            bin_buf.len(),
            json_buf.len()
        );
    }

    #[test]
    fn dict_frames_round_trip_and_shrink_on_reuse() {
        let mut codec_client = binary::ConnCodec::new();
        let mut codec_server = binary::ConnCodec::new();
        let mut scratch = Vec::new();
        let request = ShardRequest::Evaluate {
            backend: "rsn-xnn".to_string(),
            spec: WorkloadSpec::SquareGemm { n: 2048 },
        };
        let mut sizes = Vec::new();
        for id in 0..3u64 {
            let mut buffer = Vec::new();
            let sent = write_request_frame_dict(
                &mut buffer,
                id,
                &request,
                WireEncoding::BinaryDict,
                &mut scratch,
                &mut codec_client.tx,
            )
            .expect("write dict request");
            sizes.push(sent);
            assert_eq!(buffer[4], binary::DICT_MAGIC);
            // The stateless decoder must refuse what it cannot resolve.
            assert!(matches!(
                decode_request_payload(&buffer[4..]),
                Err(WireError::Decode(_))
            ));
            let (got_id, decoded, seen) =
                decode_request_payload_dict(&buffer[4..], &mut codec_server.rx)
                    .expect("decode dict request");
            assert_eq!((got_id, seen), (id, WireEncoding::BinaryDict));
            assert_eq!(decoded, request);
        }
        // First frame defines "rsn-xnn"; later frames reference it by id.
        assert!(sizes[1] < sizes[0], "reuse must shrink the frame");
        assert_eq!(sizes[1], sizes[2]);
        let (defines, hits) = codec_client.tx.take_counts();
        assert_eq!((defines, hits), (1, 2));
        let (defines, hits) = codec_server.rx.take_counts();
        assert_eq!((defines, hits), (1, 2));

        // Responses: same discipline through the server's tx table.
        let response = ShardResponse::Evaluated(Arc::new(Ok(EvalReport::new("rsn-xnn", "w"))));
        let mut first = Vec::new();
        let mut second = Vec::new();
        for buffer in [&mut first, &mut second] {
            write_response_frame_dict(
                buffer,
                7,
                &response,
                WireEncoding::BinaryDict,
                &mut scratch,
                &mut codec_server.tx,
            )
            .expect("write dict response");
            assert!(matches!(
                decode_response_payload(&buffer[4..]),
                Err(WireError::Decode(_))
            ));
            let (id, decoded) = decode_response_payload_dict(&buffer[4..], &mut codec_client.rx)
                .expect("decode dict response");
            assert_eq!(id, 7);
            assert_eq!(decoded, response);
        }
        assert!(second.len() < first.len());

        // Messages without dictionary-worthy labels keep their plain image
        // even through the dict writer — the magics interleave freely.
        let mut buffer = Vec::new();
        write_request_frame_dict(
            &mut buffer,
            9,
            &ShardRequest::Stats,
            WireEncoding::BinaryDict,
            &mut scratch,
            &mut codec_client.tx,
        )
        .expect("write stats");
        assert_eq!(buffer[4], binary::MAGIC);
        let (id, decoded, seen) = decode_request_payload_dict(&buffer[4..], &mut codec_server.rx)
            .expect("plain frame through the dict decoder");
        assert_eq!((id, seen), (9, WireEncoding::Binary));
        assert_eq!(decoded, ShardRequest::Stats);
    }

    #[test]
    fn hello_request_without_a_version_field_decodes_as_version_zero() {
        // Zero matches no build, so the shard reports a mismatch instead of
        // guessing an old client version.
        let request = json::parse(r#"{"id": 1, "kind": "hello"}"#).expect("parses");
        assert_eq!(
            ShardRequest::from_json(&request).expect("decodes"),
            (1, ShardRequest::Hello { protocol: 0 })
        );
    }

    #[test]
    fn hello_answer_without_a_version_field_decodes_as_version_zero() {
        // Zero matches no build, so the client reports a mismatch instead of
        // guessing an old shard version.
        let response =
            json::parse(r#"{"id": 2, "ok": true, "backends": ["rsn-xnn"]}"#).expect("parses");
        match ShardResponse::from_json(&response).expect("decodes") {
            (2, ShardResponse::Backends { protocol: 0, .. }) => {}
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn oversized_encode_reports_the_real_length() {
        // A payload one byte over the bound must name its own length, not a
        // saturated sentinel (the bug this pins: `u32::MAX` in the error).
        let mut scratch = vec![0u8; 4 + MAX_FRAME_BYTES as usize + 1];
        match write_framed(&mut Vec::new(), &mut scratch) {
            Err(WireError::FrameTooLarge(len)) => {
                assert_eq!(len, u64::from(MAX_FRAME_BYTES) + 1);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }
}
