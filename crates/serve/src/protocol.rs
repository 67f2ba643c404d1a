//! The Mosaic wire protocol: length-prefixed binary frames.
//!
//! # Frame layout
//!
//! Every message — in either direction — is one *frame*:
//!
//! ```text
//! ┌──────────┬────────────────┬───────────────────┐
//! │ type: u8 │ length: u32 LE │ payload: `length` │
//! └──────────┴────────────────┴───────────────────┘
//! ```
//!
//! The payload length is capped at [`MAX_FRAME`]; a frame claiming more
//! is rejected before any payload is read (the connection closes after
//! an error frame, since the stream can no longer be resynchronized).
//! All integers are little-endian. Strings are `u32` byte length +
//! UTF-8 bytes. Values are tagged scalars (see [`Value`] encoding
//! below) — floats travel as raw bit patterns, so results survive the
//! wire **bit-identical**, NaN payloads and `-0.0` included.
//!
//! # Messages
//!
//! Client → server ([`Request`]): `Query` (a `;`-separated script),
//! `Prepare` (a *named* server-side prepared statement), `ExecutePrepared`
//! (name + positional parameter values), `SetOption` (per-connection
//! session settings), `Close`.
//!
//! Server → client ([`Response`]): `Hello` (once, on connect), then per
//! request either `PrepareOk` / `OptionOk`, or a result stream
//! `Schema`, `RowBatch`*, `Done` — or a single terminal [`WireError`]
//! frame carrying a stable numeric [error code](codes), and for
//! multi-statement scripts the 0-based index and text of the statement
//! that failed. A result stream can also end in that error frame in
//! place of `Done`: a row too large for any frame (see
//! [`codes::FRAME_TOO_LARGE`]).
//!
//! Decoding never panics on malformed input: every accessor is
//! bounds-checked and returns [`DecodeError`], which the server answers
//! with a clean `codes::PROTOCOL` error frame (the framing itself is
//! still intact, so the connection stays usable).

use std::io::{self, Read, Write};

use mosaic_core::MosaicError;
use mosaic_sql::Visibility;
use mosaic_storage::{DataType, Value};

/// Protocol version carried by the server's `Hello` frame.
pub const PROTOCOL_VERSION: u16 = 1;

/// Maximum frame payload size (16 MiB). Frames claiming more are
/// rejected without reading the payload.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Most rows per `RowBatch` frame when the server streams a result
/// table; a batch also closes early when the next row would push its
/// payload past [`MAX_FRAME`].
pub const ROWS_PER_BATCH: usize = 4096;

/// Stable numeric wire error codes.
///
/// Codes 1–99 map the engine's [`MosaicError`] variants one-to-one (see
/// [`error_code`]); codes 100+ are protocol-level conditions the engine
/// never produces. The numbers are part of the wire contract: clients
/// match on them, so they never change meaning.
pub mod codes {
    /// SQL syntax error ([`mosaic_core::MosaicError::Parse`]).
    pub const PARSE: u16 = 1;
    /// Storage-layer error ([`mosaic_core::MosaicError::Storage`]).
    pub const STORAGE: u16 = 2;
    /// Catalog violation ([`mosaic_core::MosaicError::Catalog`]).
    pub const CATALOG: u16 = 3;
    /// Unsupported statement ([`mosaic_core::MosaicError::Unsupported`]).
    pub const UNSUPPORTED: u16 = 4;
    /// Execution error ([`mosaic_core::MosaicError::Execution`]).
    pub const EXECUTION: u16 = 5;
    /// Bind failure ([`mosaic_core::MosaicError::Bind`]).
    pub const BIND: u16 = 6;
    /// Positional-parameter mismatch ([`mosaic_core::MosaicError::Param`]).
    pub const PARAM: u16 = 7;
    /// M-SWG failure ([`mosaic_core::MosaicError::Swg`]).
    pub const SWG: u16 = 8;
    /// Bayesian-network failure ([`mosaic_core::MosaicError::Bn`]).
    pub const BN: u16 = 9;
    /// Malformed frame payload or unknown message type; the connection
    /// stays usable (framing is intact).
    pub const PROTOCOL: u16 = 100;
    /// Frame payload length exceeds [`super::MAX_FRAME`]. For a request
    /// frame the server closes the connection after this error (the
    /// stream cannot be resynchronized); for a result row that alone
    /// cannot fit a `RowBatch` it ends that result and the connection
    /// stays usable.
    pub const FRAME_TOO_LARGE: u16 = 101;
    /// `ExecutePrepared` named a statement this connection never
    /// prepared.
    pub const UNKNOWN_PREPARED: u16 = 102;
    /// `SetOption` named an unknown key or an unparsable value.
    pub const UNKNOWN_OPTION: u16 = 103;
    /// The server is at its connection cap; sent once, then the
    /// connection closes.
    pub const SERVER_BUSY: u16 = 104;
}

/// The stable wire code of an engine error (codes 1–9; see [`codes`]).
pub fn error_code(e: &MosaicError) -> u16 {
    match e {
        MosaicError::Parse(_) => codes::PARSE,
        MosaicError::Storage(_) => codes::STORAGE,
        MosaicError::Catalog(_) => codes::CATALOG,
        MosaicError::Unsupported(_) => codes::UNSUPPORTED,
        MosaicError::Execution(_) => codes::EXECUTION,
        MosaicError::Bind(_) => codes::BIND,
        MosaicError::Param(_) => codes::PARAM,
        MosaicError::Swg(_) => codes::SWG,
        MosaicError::Bn(_) => codes::BN,
    }
}

// Frame type bytes. Client requests use the low range, server responses
// set the high bit.
const T_QUERY: u8 = 0x01;
const T_PREPARE: u8 = 0x02;
const T_EXECUTE: u8 = 0x03;
const T_SET_OPTION: u8 = 0x04;
const T_CLOSE: u8 = 0x05;
const T_CACHE_STATS: u8 = 0x06;
const T_HELLO: u8 = 0x81;
const T_SCHEMA: u8 = 0x82;
const T_ROW_BATCH: u8 = 0x83;
const T_DONE: u8 = 0x84;
const T_ERROR: u8 = 0x85;
const T_PREPARE_OK: u8 = 0x86;
const T_OPTION_OK: u8 = 0x87;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a `;`-separated SQL script; the server streams the last
    /// SELECT's result (or an empty result).
    Query {
        /// The SQL text.
        sql: String,
    },
    /// Create (or replace) a server-side named prepared statement.
    Prepare {
        /// The name `ExecutePrepared` refers back to.
        name: String,
        /// A single SELECT statement, `?` placeholders allowed.
        sql: String,
    },
    /// Execute a named prepared statement with positional parameters.
    ExecutePrepared {
        /// The name given at `Prepare` time.
        name: String,
        /// One value per `?`, in lexical order.
        params: Vec<Value>,
    },
    /// Set one of the connection's session knobs (any key of
    /// [`mosaic_core::KEYS`]), or clear the engine's caches with
    /// `result_cache=clear`.
    SetOption {
        /// Option key (case-insensitive).
        key: String,
        /// Option value, as text.
        value: String,
    },
    /// Ask for the engine's result/plan cache statistics. The server
    /// answers with an ordinary result stream (`Schema` → `RowBatch` →
    /// `Done`) of a two-column `(stat TEXT, value INT)` table, so
    /// clients reuse their result machinery.
    CacheStats,
    /// Close the connection cleanly.
    Close,
}

/// One column of a result-set [`Response::Schema`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireField {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether the column admits NULLs.
    pub nullable: bool,
}

/// A typed error frame: stable code, optional failing-statement
/// position (multi-statement scripts), and the human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable numeric code (see [`codes`]).
    pub code: u16,
    /// 0-based index of the failing statement within the submitted
    /// script, when the request was a `Query` whose script parsed.
    pub statement_index: Option<u32>,
    /// Text of the failing statement (empty when not applicable).
    pub statement_text: String,
    /// Human-readable error message.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[code {}] {}", self.code, self.message)?;
        if let Some(i) = self.statement_index {
            write!(f, " (statement {}: {})", i + 1, self.statement_text)?;
        }
        Ok(())
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Sent once when a connection is accepted.
    Hello {
        /// Protocol version (see [`PROTOCOL_VERSION`]).
        version: u16,
        /// Server banner text.
        banner: String,
    },
    /// Result-set header: the column layout of the batches that follow.
    Schema {
        /// Result columns in order.
        fields: Vec<WireField>,
    },
    /// A batch of result rows (at most [`ROWS_PER_BATCH`] of them, and
    /// at most [`MAX_FRAME`] payload bytes).
    RowBatch {
        /// Row-major values; every row has one value per schema column.
        rows: Vec<Vec<Value>>,
    },
    /// Result-set terminator with execution diagnostics.
    Done {
        /// Visibility that produced the result (population queries).
        visibility: Option<Visibility>,
        /// Human-readable execution notes.
        notes: Vec<String>,
    },
    /// Terminal error for the current request.
    Error(WireError),
    /// A `Prepare` succeeded.
    PrepareOk {
        /// The statement's name.
        name: String,
        /// Number of `?` parameters the statement expects.
        param_count: u32,
    },
    /// A `SetOption` succeeded.
    OptionOk {
        /// The key that was set.
        key: String,
    },
}

/// A malformed frame payload (bounds, UTF-8, unknown tags). Decoding is
/// total: any byte string produces either a message or this error,
/// never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Reading a frame failed: transport error, or a length prefix beyond
/// [`MAX_FRAME`].
#[derive(Debug)]
pub enum FrameError {
    /// Transport-level failure (including unexpected mid-frame EOF).
    Io(io::Error),
    /// The header claimed a payload larger than [`MAX_FRAME`].
    TooLarge(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame payload of {n} bytes exceeds the {MAX_FRAME} cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame: type byte, `u32` LE payload length, payload. A
/// payload over [`MAX_FRAME`] is refused with `InvalidInput` and
/// nothing is written: the peer would reject the frame and lose the
/// stream.
pub fn write_frame(w: &mut impl Write, ty: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME} cap",
                payload.len()
            ),
        ));
    }
    w.write_all(&[ty])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame. `Ok(None)` is a clean EOF at a frame boundary;
/// EOF mid-frame (a truncated frame) is an [`FrameError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut ty = [0u8; 1];
    // A clean close between frames shows up as EOF on the first byte.
    match r.read(&mut ty) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return Err(e.into()),
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some((ty[0], payload)))
}

// ---------------------------------------------------------------------
// Payload encoding primitives.

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            // Raw bit pattern: NaN payloads and -0.0 survive the wire,
            // keeping remote results bit-identical to in-process ones.
            buf.push(3);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
    }
}

/// Payload bytes of a `RowBatch` before its first row: the row count.
pub(crate) const ROW_BATCH_PREFIX: usize = 4;

/// Payload bytes one row adds to a `RowBatch`: its value count, then
/// each value as [`put_value`] writes it.
pub(crate) fn encoded_row_len(row: &[Value]) -> usize {
    4 + row
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
        })
        .sum::<usize>()
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
    }
}

/// Bounds-checked payload cursor; every accessor fails soft.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| DecodeError(format!("{n} bytes past payload end")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("invalid UTF-8".into()))
    }

    fn value(&mut self) -> Result<Value, DecodeError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.u8()? != 0)),
            2 => Ok(Value::Int(self.u64()? as i64)),
            3 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            4 => Ok(Value::Str(self.str()?)),
            t => Err(DecodeError(format!("unknown value tag {t}"))),
        }
    }

    fn data_type(&mut self) -> Result<DataType, DecodeError> {
        match self.u8()? {
            0 => Ok(DataType::Bool),
            1 => Ok(DataType::Int),
            2 => Ok(DataType::Float),
            3 => Ok(DataType::Str),
            t => Err(DecodeError(format!("unknown type tag {t}"))),
        }
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Element-count prefixes are bounds-checked against the payload before
/// any allocation: a count that could not possibly fit is malformed.
fn checked_count(cur: &Cur<'_>, count: u32, min_elem_bytes: usize) -> Result<usize, DecodeError> {
    let remaining = cur.buf.len() - cur.pos;
    let need = (count as usize).saturating_mul(min_elem_bytes);
    if need > remaining {
        return Err(DecodeError(format!(
            "count {count} exceeds remaining payload ({remaining} bytes)"
        )));
    }
    Ok(count as usize)
}

impl Request {
    /// Encode into a (type byte, payload) pair for [`write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        let ty = match self {
            Request::Query { sql } => {
                put_str(&mut buf, sql);
                T_QUERY
            }
            Request::Prepare { name, sql } => {
                put_str(&mut buf, name);
                put_str(&mut buf, sql);
                T_PREPARE
            }
            Request::ExecutePrepared { name, params } => {
                put_str(&mut buf, name);
                buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
                for p in params {
                    put_value(&mut buf, p);
                }
                T_EXECUTE
            }
            Request::SetOption { key, value } => {
                put_str(&mut buf, key);
                put_str(&mut buf, value);
                T_SET_OPTION
            }
            Request::CacheStats => T_CACHE_STATS,
            Request::Close => T_CLOSE,
        };
        (ty, buf)
    }

    /// Decode a frame; total (any input yields `Ok` or [`DecodeError`]).
    pub fn decode(ty: u8, payload: &[u8]) -> Result<Request, DecodeError> {
        let mut cur = Cur::new(payload);
        let req = match ty {
            T_QUERY => Request::Query { sql: cur.str()? },
            T_PREPARE => Request::Prepare {
                name: cur.str()?,
                sql: cur.str()?,
            },
            T_EXECUTE => {
                let name = cur.str()?;
                let count = cur.u32()?;
                let count = checked_count(&cur, count, 1)?;
                let mut params = Vec::with_capacity(count);
                for _ in 0..count {
                    params.push(cur.value()?);
                }
                Request::ExecutePrepared { name, params }
            }
            T_SET_OPTION => Request::SetOption {
                key: cur.str()?,
                value: cur.str()?,
            },
            T_CACHE_STATS => Request::CacheStats,
            T_CLOSE => Request::Close,
            t => return Err(DecodeError(format!("unknown request type 0x{t:02x}"))),
        };
        cur.finish()?;
        Ok(req)
    }
}

fn vis_tag(v: Visibility) -> u8 {
    match v {
        Visibility::Closed => 1,
        Visibility::SemiOpen => 2,
        Visibility::Open => 3,
    }
}

impl Response {
    /// Encode into a (type byte, payload) pair for [`write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        let ty = match self {
            Response::Hello { version, banner } => {
                buf.extend_from_slice(&version.to_le_bytes());
                put_str(&mut buf, banner);
                T_HELLO
            }
            Response::Schema { fields } => {
                buf.extend_from_slice(&(fields.len() as u32).to_le_bytes());
                for f in fields {
                    put_str(&mut buf, &f.name);
                    buf.push(type_tag(f.data_type));
                    buf.push(f.nullable as u8);
                }
                T_SCHEMA
            }
            Response::RowBatch { rows } => {
                buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
                    for v in row {
                        put_value(&mut buf, v);
                    }
                }
                T_ROW_BATCH
            }
            Response::Done { visibility, notes } => {
                buf.push(visibility.map_or(0, vis_tag));
                buf.extend_from_slice(&(notes.len() as u32).to_le_bytes());
                for n in notes {
                    put_str(&mut buf, n);
                }
                T_DONE
            }
            Response::Error(e) => {
                buf.extend_from_slice(&e.code.to_le_bytes());
                buf.extend_from_slice(&e.statement_index.unwrap_or(u32::MAX).to_le_bytes());
                put_str(&mut buf, &e.statement_text);
                put_str(&mut buf, &e.message);
                T_ERROR
            }
            Response::PrepareOk { name, param_count } => {
                put_str(&mut buf, name);
                buf.extend_from_slice(&param_count.to_le_bytes());
                T_PREPARE_OK
            }
            Response::OptionOk { key } => {
                put_str(&mut buf, key);
                T_OPTION_OK
            }
        };
        (ty, buf)
    }

    /// Decode a frame; total (any input yields `Ok` or [`DecodeError`]).
    pub fn decode(ty: u8, payload: &[u8]) -> Result<Response, DecodeError> {
        let mut cur = Cur::new(payload);
        let resp = match ty {
            T_HELLO => Response::Hello {
                version: cur.u16()?,
                banner: cur.str()?,
            },
            T_SCHEMA => {
                let count = cur.u32()?;
                let count = checked_count(&cur, count, 6)?;
                let mut fields = Vec::with_capacity(count);
                for _ in 0..count {
                    fields.push(WireField {
                        name: cur.str()?,
                        data_type: cur.data_type()?,
                        nullable: cur.u8()? != 0,
                    });
                }
                Response::Schema { fields }
            }
            T_ROW_BATCH => {
                let count = cur.u32()?;
                let count = checked_count(&cur, count, 4)?;
                let mut rows = Vec::with_capacity(count);
                for _ in 0..count {
                    let ncols = cur.u32()?;
                    let ncols = checked_count(&cur, ncols, 1)?;
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(cur.value()?);
                    }
                    rows.push(row);
                }
                Response::RowBatch { rows }
            }
            T_DONE => {
                let visibility = match cur.u8()? {
                    0 => None,
                    1 => Some(Visibility::Closed),
                    2 => Some(Visibility::SemiOpen),
                    3 => Some(Visibility::Open),
                    t => return Err(DecodeError(format!("unknown visibility tag {t}"))),
                };
                let count = cur.u32()?;
                let count = checked_count(&cur, count, 4)?;
                let mut notes = Vec::with_capacity(count);
                for _ in 0..count {
                    notes.push(cur.str()?);
                }
                Response::Done { visibility, notes }
            }
            T_ERROR => {
                let code = cur.u16()?;
                let idx = cur.u32()?;
                Response::Error(WireError {
                    code,
                    statement_index: (idx != u32::MAX).then_some(idx),
                    statement_text: cur.str()?,
                    message: cur.str()?,
                })
            }
            T_PREPARE_OK => Response::PrepareOk {
                name: cur.str()?,
                param_count: cur.u32()?,
            },
            T_OPTION_OK => Response::OptionOk { key: cur.str()? },
            t => return Err(DecodeError(format!("unknown response type 0x{t:02x}"))),
        };
        cur.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let (ty, payload) = req.encode();
        assert!(payload.len() as u64 <= MAX_FRAME as u64);
        assert_eq!(Request::decode(ty, &payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let (ty, payload) = resp.encode();
        assert_eq!(Response::decode(ty, &payload).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Query {
            sql: "SELECT 1; SELECT 'héllo, wörld'".into(),
        });
        roundtrip_req(Request::Prepare {
            name: "q".into(),
            sql: "SELECT * FROM t WHERE i > ?".into(),
        });
        roundtrip_req(Request::ExecutePrepared {
            name: "q".into(),
            params: vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-42),
                Value::Float(f64::NAN),
                Value::Str("a,b".into()),
            ],
        });
        roundtrip_req(Request::SetOption {
            key: "visibility".into(),
            value: "closed".into(),
        });
        roundtrip_req(Request::CacheStats);
        roundtrip_req(Request::Close);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Hello {
            version: PROTOCOL_VERSION,
            banner: "mosaic".into(),
        });
        roundtrip_resp(Response::Schema {
            fields: vec![
                WireField {
                    name: "k".into(),
                    data_type: DataType::Str,
                    nullable: true,
                },
                WireField {
                    name: "c".into(),
                    data_type: DataType::Int,
                    nullable: false,
                },
            ],
        });
        roundtrip_resp(Response::RowBatch {
            rows: vec![
                vec![Value::Str("a".into()), Value::Int(1)],
                vec![Value::Null, Value::Float(-0.0)],
            ],
        });
        roundtrip_resp(Response::Done {
            visibility: Some(Visibility::SemiOpen),
            notes: vec!["ipf converged".into()],
        });
        roundtrip_resp(Response::Error(WireError {
            code: codes::BIND,
            statement_index: Some(2),
            statement_text: "SELECT nope".into(),
            message: "bind error: unknown column nope".into(),
        }));
        roundtrip_resp(Response::PrepareOk {
            name: "q".into(),
            param_count: 3,
        });
        roundtrip_resp(Response::OptionOk { key: "seed".into() });
    }

    #[test]
    fn float_bits_survive() {
        // A NaN with a payload and a negative zero: bit-for-bit.
        let odd_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        for v in [Value::Float(odd_nan), Value::Float(-0.0)] {
            let (ty, payload) = Request::ExecutePrepared {
                name: "p".into(),
                params: vec![v.clone()],
            }
            .encode();
            match Request::decode(ty, &payload).unwrap() {
                Request::ExecutePrepared { params, .. } => match (&params[0], &v) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                    _ => panic!("wrong value"),
                },
                _ => panic!("wrong request"),
            }
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_fail_soft() {
        let (ty, payload) = Request::Prepare {
            name: "q".into(),
            sql: "SELECT 1".into(),
        }
        .encode();
        for cut in 0..payload.len() {
            assert!(Request::decode(ty, &payload[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = payload.clone();
        extra.push(0);
        assert!(Request::decode(ty, &extra).is_err());
        // Absurd element counts are rejected before allocating.
        let mut bogus = Vec::new();
        put_str(&mut bogus, "p");
        bogus.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(T_EXECUTE, &bogus).is_err());
    }

    #[test]
    fn oversized_frames_rejected_before_payload() {
        let mut buf = Vec::new();
        buf.push(T_QUERY);
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        let mut r = std::io::Cursor::new(buf);
        match read_frame(&mut r) {
            Err(FrameError::TooLarge(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn encoded_row_len_matches_the_encoding() {
        let rows = vec![
            vec![],
            vec![Value::Null, Value::Bool(false), Value::Int(-1)],
            vec![Value::Float(f64::NAN), Value::Str(String::new())],
            vec![Value::Str("héllo".into())],
        ];
        let (_, payload) = Response::RowBatch { rows: rows.clone() }.encode();
        let predicted: usize = rows.iter().map(|r| encoded_row_len(r)).sum();
        assert_eq!(payload.len(), ROW_BATCH_PREFIX + predicted);
    }

    #[test]
    fn oversized_payloads_are_never_written() {
        let mut out = Vec::new();
        let payload = vec![0u8; MAX_FRAME as usize + 1];
        let err = write_frame(&mut out, T_ROW_BATCH, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing may reach the writer");
    }

    #[test]
    fn clean_eof_is_none() {
        let mut r = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut r).unwrap().is_none());
        // Mid-frame EOF is an error, not a silent None.
        let mut r = std::io::Cursor::new(vec![T_QUERY, 10, 0]);
        assert!(read_frame(&mut r).is_err());
    }
}
