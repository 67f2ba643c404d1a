//! The TCP server: a bounded acceptor, one thread + one [`Session`] per
//! connection, and permit-gated query execution.
//!
//! No async runtime is vendored, so the server is deliberately
//! thread-per-connection over `std::net`: connection threads spend
//! their life blocked on `read` (cheap), and the expensive resource —
//! engine worker threads — is bounded by the [`PermitPool`] regardless
//! of the connection count. The acceptor itself is bounded too: beyond
//! [`ServeConfig::max_connections`] a new client gets one
//! `SERVER_BUSY` error frame and a close instead of an unbounded
//! thread.
//!
//! A connection encodes frames into its write buffer and flushes once
//! per reply, so a small result (`Schema` + `RowBatch` + `Done`) leaves
//! in one `write`; a result that outgrows the buffer writes through as
//! it is encoded and is never held whole.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use mosaic_core::{MosaicEngine, MosaicError, Prepared, QueryResult, ScriptError, Session};
use mosaic_storage::Value;

use crate::admission::PermitPool;
use crate::protocol::{
    codes, encoded_row_len, error_code, read_frame, write_frame, FrameError, Request, Response,
    WireError, WireField, MAX_FRAME, PROTOCOL_VERSION, ROWS_PER_BATCH, ROW_BATCH_PREFIX,
};

/// Capacity of a connection's write buffer. A reply collects here and
/// goes out with one flush when it is complete; bytes beyond it write
/// through as they are encoded.
const WRITE_BUFFER: usize = 8 * 1024;

/// Server configuration.
///
/// `#[non_exhaustive]`: construct via [`ServeConfig::default`] and the
/// `with_*` builders.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Connection cap for the bounded acceptor: clients beyond it get a
    /// `SERVER_BUSY` error frame and an immediate close.
    pub max_connections: usize,
    /// Total engine worker-thread budget shared by every connection
    /// (the [`PermitPool`] size). `None` inherits the engine's
    /// configured parallelism.
    pub worker_budget: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_connections: 1024,
            worker_budget: None,
        }
    }
}

impl ServeConfig {
    /// Set the connection cap (minimum 1).
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    /// Set the shared worker-thread budget (minimum 1).
    pub fn with_worker_budget(mut self, n: usize) -> Self {
        self.worker_budget = Some(n.max(1));
        self
    }
}

/// Shared server state: the permit pool plus connection metrics.
struct Shared {
    pool: Arc<PermitPool>,
    max_connections: usize,
    active_connections: AtomicUsize,
    total_connections: AtomicU64,
    rejected_connections: AtomicU64,
    shutdown: AtomicBool,
}

/// A bound (but not yet serving) Mosaic server.
///
/// [`Server::bind`] reserves the address; [`Server::serve`] blocks on
/// the accept loop, and [`Server::spawn`] runs it on a background
/// thread, returning a [`ServerHandle`] for metrics and shutdown.
pub struct Server {
    listener: TcpListener,
    engine: Arc<MosaicEngine>,
    shared: Arc<Shared>,
}

/// A handle onto a running server: address, metrics, shutdown.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Worker permits currently held by executing queries (0 when the
    /// server is idle — a nonzero value after every client disconnected
    /// would mean a permit leak).
    pub fn permits_in_use(&self) -> usize {
        self.shared.pool.in_use()
    }

    /// The highest number of worker permits ever simultaneously held.
    pub fn permit_peak(&self) -> usize {
        self.shared.pool.peak_in_use()
    }

    /// The shared worker-thread budget.
    pub fn worker_budget(&self) -> usize {
        self.shared.pool.budget()
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> usize {
        self.shared.active_connections.load(Ordering::Relaxed)
    }

    /// Connections accepted since the server started.
    pub fn total_connections(&self) -> u64 {
        self.shared.total_connections.load(Ordering::Relaxed)
    }

    /// Connections rejected by the bounded acceptor.
    pub fn rejected_connections(&self) -> u64 {
        self.shared.rejected_connections.load(Ordering::Relaxed)
    }

    /// Ask the accept loop to exit. Open connections drain on their
    /// own when their clients disconnect; no new ones are accepted.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind a server for `engine` on `addr` (use port 0 for an
    /// OS-assigned port; see [`Server::local_addr`]).
    pub fn bind(
        engine: Arc<MosaicEngine>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let budget = config
            .worker_budget
            .unwrap_or_else(|| engine.options().parallelism)
            .max(1);
        let shared = Arc::new(Shared {
            pool: PermitPool::new(budget),
            max_connections: config.max_connections.max(1),
            active_connections: AtomicUsize::new(0),
            total_connections: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        Ok(Server {
            listener,
            engine,
            shared,
        })
    }

    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// A handle for metrics and shutdown.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Run the accept loop on the calling thread until
    /// [`ServerHandle::shutdown`] is called.
    pub fn serve(self) {
        let Server {
            listener,
            engine,
            shared,
        } = self;
        for stream in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Frames are small and latency-sensitive; Nagle would add
            // a delayed-ACK round trip to every response.
            stream.set_nodelay(true).ok();
            // Bounded acceptor: at the cap, answer with one BUSY frame
            // and close instead of spawning an unbounded thread.
            let active = shared.active_connections.load(Ordering::Relaxed);
            if active >= shared.max_connections {
                shared.rejected_connections.fetch_add(1, Ordering::Relaxed);
                let mut w = BufWriter::new(&stream);
                let busy = Response::Error(WireError {
                    code: codes::SERVER_BUSY,
                    statement_index: None,
                    statement_text: String::new(),
                    message: format!("server is at its {}-connection cap", shared.max_connections),
                });
                let (ty, payload) = busy.encode();
                let _ = write_frame(&mut w, ty, &payload);
                let _ = w.flush();
                continue;
            }
            shared.active_connections.fetch_add(1, Ordering::Relaxed);
            shared.total_connections.fetch_add(1, Ordering::Relaxed);
            let engine = Arc::clone(&engine);
            let shared2 = Arc::clone(&shared);
            std::thread::spawn(move || {
                let _ = stream.try_clone().and_then(|reader| {
                    Connection::new(engine, Arc::clone(&shared2.pool)).run(reader, stream)
                });
                shared2.active_connections.fetch_sub(1, Ordering::Relaxed);
            });
        }
    }

    /// Run the accept loop on a background thread; returns the handle
    /// and the loop's join handle.
    pub fn spawn(self) -> (ServerHandle, std::thread::JoinHandle<()>) {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.serve());
        (handle, join)
    }
}

/// Per-connection state: the session (with its per-connection option
/// overrides) and the named prepared statements.
struct Connection {
    session: Session,
    prepared: HashMap<String, Prepared>,
    pool: Arc<PermitPool>,
}

impl Connection {
    fn new(engine: Arc<MosaicEngine>, pool: Arc<PermitPool>) -> Connection {
        Connection {
            session: engine.session(),
            prepared: HashMap::new(),
            pool,
        }
    }

    /// Serve requests until the client closes. Replies are only encoded
    /// into the write buffer; it is flushed once the `Hello`, each
    /// request's complete reply, or the final `FRAME_TOO_LARGE` error
    /// is in it.
    fn run(mut self, reader: impl Read, writer: impl Write) -> io::Result<()> {
        let mut reader = BufReader::new(reader);
        let mut writer = BufWriter::with_capacity(WRITE_BUFFER, writer);
        send(
            &mut writer,
            &Response::Hello {
                version: PROTOCOL_VERSION,
                banner: "mosaic-serve".into(),
            },
        )?;
        writer.flush()?;
        loop {
            let (ty, payload) = match read_frame(&mut reader) {
                Ok(Some(f)) => f,
                // Clean EOF: the client went away between frames.
                Ok(None) => return Ok(()),
                Err(FrameError::TooLarge(n)) => {
                    // The stream cannot be resynchronized (the bogus
                    // length prefix poisons everything after it): one
                    // clean error frame, then close.
                    send(
                        &mut writer,
                        &protocol_error(
                            codes::FRAME_TOO_LARGE,
                            format!("frame payload of {n} bytes exceeds the {MAX_FRAME} cap"),
                        ),
                    )?;
                    return writer.flush();
                }
                // Truncated frame / transport error: nothing sane to
                // answer onto.
                Err(FrameError::Io(_)) => return Ok(()),
            };
            match Request::decode(ty, &payload) {
                Ok(Request::Close) => return Ok(()),
                Ok(Request::Query { sql }) => self.query(&mut writer, &sql)?,
                Ok(Request::Prepare { name, sql }) => self.prepare(&mut writer, name, &sql)?,
                Ok(Request::ExecutePrepared { name, params }) => {
                    self.execute_prepared(&mut writer, &name, &params)?
                }
                Ok(Request::SetOption { key, value }) => {
                    self.set_option(&mut writer, &key, &value)?
                }
                Ok(Request::CacheStats) => self.cache_stats(&mut writer)?,
                // The frame was well-delimited, just meaningless: answer
                // and keep the connection.
                Err(e) => send(&mut writer, &protocol_error(codes::PROTOCOL, e.to_string()))?,
            }
            writer.flush()?;
        }
    }

    /// Worker permits for one query: want the session's thread cap, get
    /// what admission control grants.
    fn admit(&self) -> crate::admission::Permit {
        self.pool.acquire(self.session.knobs().threads)
    }

    /// Answer a `Query` request: the script's last result, or an error
    /// frame naming the failing statement (see [`script_error`]).
    fn query(&self, w: &mut impl Write, sql: &str) -> io::Result<()> {
        // One admission per request: the plan-cache probe and, on a
        // miss, every statement of the script run under these permits.
        let permit = self.admit();
        let outcome = self
            .session
            .clone()
            .with_parallelism(permit.threads())
            .execute_script(sql);
        drop(permit);
        match outcome {
            Ok(r) => stream_result(w, &r),
            Err(e) => send(w, &script_error(e)),
        }
    }

    fn prepare(&mut self, w: &mut impl Write, name: String, sql: &str) -> io::Result<()> {
        match self.session.prepare(sql) {
            Ok(p) => {
                let param_count = p.param_count() as u32;
                self.prepared.insert(name.clone(), p);
                send(w, &Response::PrepareOk { name, param_count })
            }
            Err(e) => send(w, &engine_error(&e)),
        }
    }

    fn execute_prepared(
        &mut self,
        w: &mut impl Write,
        name: &str,
        params: &[Value],
    ) -> io::Result<()> {
        let Some(p) = self.prepared.get(name) else {
            return send(
                w,
                &protocol_error(
                    codes::UNKNOWN_PREPARED,
                    format!("no prepared statement named {name} on this connection"),
                ),
            );
        };
        let permit = self.admit();
        let session = self.session.clone().with_parallelism(permit.threads());
        let result = session.execute_prepared(p, params);
        drop(permit);
        match result {
            Ok(r) => stream_result(w, &r),
            Err(e) => send(w, &engine_error(&e)),
        }
    }

    /// Answer a `SetOption` request: `result_cache=clear` drops every
    /// cached result, plan, fitted model and replicate engine-wide (see
    /// [`MosaicEngine::clear_caches`]); any other pair sets one of
    /// this connection's knobs through [`Session::set`].
    fn set_option(&mut self, w: &mut impl Write, key: &str, value: &str) -> io::Result<()> {
        let key = key.to_ascii_lowercase();
        let outcome = if key == "result_cache" && value.trim().eq_ignore_ascii_case("clear") {
            self.session.engine().clear_caches();
            Ok(())
        } else {
            self.session.set(&key, value)
        };
        match outcome {
            Ok(()) => send(w, &Response::OptionOk { key }),
            Err(message) => send(w, &protocol_error(codes::UNKNOWN_OPTION, message)),
        }
    }

    /// Answer a `CacheStats` request with a `(stat TEXT, value INT)`
    /// result stream of the engine's result, plan and derived-artefact
    /// cache counters.
    fn cache_stats(&self, w: &mut impl Write) -> io::Result<()> {
        let s = self.session.engine().cache_stats();
        let stats: [(&str, u64); 17] = [
            ("capacity_bytes", s.capacity_bytes as u64),
            ("entries", s.entries as u64),
            ("bytes", s.bytes as u64),
            ("hits", s.hits),
            ("misses", s.misses),
            ("insertions", s.insertions),
            ("evictions", s.evictions),
            ("invalidations", s.invalidations),
            ("plan_hits", s.plan_hits),
            ("plan_misses", s.plan_misses),
            ("derived_capacity_bytes", s.derived_capacity_bytes as u64),
            ("derived_entries", s.derived_entries as u64),
            ("derived_bytes", s.derived_bytes as u64),
            ("derived_hits", s.derived_hits),
            ("derived_misses", s.derived_misses),
            ("derived_evictions", s.derived_evictions),
            ("derived_invalidations", s.derived_invalidations),
        ];
        let table = mosaic_storage::Table::new(
            mosaic_storage::Schema::new(vec![
                mosaic_storage::Field::new("stat", mosaic_storage::DataType::Str),
                mosaic_storage::Field::new("value", mosaic_storage::DataType::Int),
            ]),
            vec![
                mosaic_storage::Column::from_str(
                    stats.iter().map(|(k, _)| k.to_string()).collect(),
                ),
                mosaic_storage::Column::from_i64(stats.iter().map(|(_, v)| *v as i64).collect()),
            ],
        )
        .expect("static schema matches columns");
        stream_result(
            w,
            &QueryResult {
                table,
                visibility: None,
                notes: Vec::new(),
            },
        )
    }
}

/// Stream one result: `Schema`, then `RowBatch` frames, then `Done`. A
/// batch closes at `ROWS_PER_BATCH` rows or before the row that would
/// push its payload past `MAX_FRAME`; a row too large for any frame
/// ends the result with a `FRAME_TOO_LARGE` error in place of `Done`.
fn stream_result(w: &mut impl Write, result: &QueryResult) -> io::Result<()> {
    let t = &result.table;
    let fields = t
        .schema()
        .fields()
        .iter()
        .map(|f| WireField {
            name: f.name.clone(),
            data_type: f.data_type,
            nullable: f.nullable,
        })
        .collect();
    send(w, &Response::Schema { fields })?;
    let batch_capacity = |from: usize| (t.num_rows() - from).min(ROWS_PER_BATCH);
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(batch_capacity(0));
    let mut payload = ROW_BATCH_PREFIX;
    for r in 0..t.num_rows() {
        let row = t.row(r);
        let len = encoded_row_len(&row);
        if ROW_BATCH_PREFIX + len > MAX_FRAME as usize {
            return send(
                w,
                &protocol_error(
                    codes::FRAME_TOO_LARGE,
                    format!(
                        "result row {r} needs a frame payload of {} bytes, which exceeds the \
                         {MAX_FRAME} cap",
                        ROW_BATCH_PREFIX + len
                    ),
                ),
            );
        }
        if rows.len() == ROWS_PER_BATCH || payload + len > MAX_FRAME as usize {
            let full = std::mem::replace(&mut rows, Vec::with_capacity(batch_capacity(r)));
            send(w, &Response::RowBatch { rows: full })?;
            payload = ROW_BATCH_PREFIX;
        }
        payload += len;
        rows.push(row);
    }
    if !rows.is_empty() {
        send(w, &Response::RowBatch { rows })?;
    }
    send(
        w,
        &Response::Done {
            visibility: result.visibility,
            notes: result.notes.clone(),
        },
    )
}

/// The error frame of a failed script: the failing statement's 0-based
/// index and text, or neither when the script did not parse (code
/// `PARSE`).
fn script_error(e: ScriptError) -> Response {
    let (statement_index, statement_text) = match e.statement {
        Some((i, text)) => (Some(i as u32), text),
        None => (None, String::new()),
    };
    Response::Error(WireError {
        code: error_code(&e.error),
        statement_index,
        statement_text,
        message: e.error.to_string(),
    })
}

fn engine_error(e: &MosaicError) -> Response {
    Response::Error(WireError {
        code: error_code(e),
        statement_index: None,
        statement_text: String::new(),
        message: e.to_string(),
    })
}

fn protocol_error(code: u16, message: String) -> Response {
    Response::Error(WireError {
        code,
        statement_index: None,
        statement_text: String::new(),
        message,
    })
}

/// Encode one frame into the connection's write buffer; the flush is
/// the caller's, once per reply.
fn send(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let (ty, payload) = resp.encode();
    write_frame(w, ty, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::{Column, DataType, Field, Schema, Table};

    /// A socket stand-in that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// An engine holding `t (x INT)` with `rows` rows.
    fn engine_with(rows: usize) -> Arc<MosaicEngine> {
        let engine = Arc::new(MosaicEngine::new());
        let table = Table::new(
            Schema::new(vec![Field::new("x", DataType::Int)]),
            vec![Column::from_i64((0..rows as i64).collect())],
        )
        .unwrap();
        engine.register_table("t", table).unwrap();
        engine
    }

    /// Run one connection over `requests` (then EOF); returns what
    /// reached the socket and its frames, decoded.
    fn serve(engine: &Arc<MosaicEngine>, requests: &[Request]) -> (CountingWriter, Vec<Response>) {
        let mut input = Vec::new();
        for r in requests {
            let (ty, payload) = r.encode();
            write_frame(&mut input, ty, &payload).unwrap();
        }
        let mut out = CountingWriter::default();
        Connection::new(Arc::clone(engine), PermitPool::new(1))
            .run(input.as_slice(), &mut out)
            .unwrap();
        let mut frames = Vec::new();
        let mut rest = out.bytes.as_slice();
        while let Some((ty, payload)) = read_frame(&mut rest).unwrap() {
            frames.push(Response::decode(ty, &payload).unwrap());
        }
        (out, frames)
    }

    fn query(sql: &str) -> Request {
        Request::Query { sql: sql.into() }
    }

    #[test]
    fn small_reply_reaches_the_socket_in_one_write() {
        let (out, frames) = serve(&engine_with(3), &[query("SELECT x FROM t ORDER BY x")]);
        assert!(
            matches!(
                frames.as_slice(),
                [
                    Response::Hello { .. },
                    Response::Schema { .. },
                    Response::RowBatch { .. },
                    Response::Done { .. }
                ]
            ),
            "{frames:?}"
        );
        // The Hello, then Schema + RowBatch + Done together.
        assert_eq!(out.writes.len(), 2, "writes: {:?}", out.writes);
    }

    #[test]
    fn large_reply_streams_through_the_write_buffer() {
        let rows = ROWS_PER_BATCH * 3 + 7;
        let (out, frames) = serve(&engine_with(rows), &[query("SELECT x FROM t")]);
        let batches: Vec<usize> = frames
            .iter()
            .filter_map(|f| match f {
                Response::RowBatch { rows } => Some(rows.len()),
                _ => None,
            })
            .collect();
        assert_eq!(batches, [ROWS_PER_BATCH, ROWS_PER_BATCH, ROWS_PER_BATCH, 7]);
        let largest_payload = frames.iter().map(|f| f.encode().1.len()).max().unwrap();
        let reply_bytes = out.bytes.len() - out.writes[0];
        let reply_writes = &out.writes[1..];
        // Bytes write through as the buffer fills: no write carries more
        // than one buffer or one frame's payload, so the result is never
        // held whole...
        assert!(largest_payload < reply_bytes);
        let largest_write = *reply_writes.iter().max().unwrap();
        assert!(
            largest_write <= WRITE_BUFFER.max(largest_payload),
            "writes: {reply_writes:?}"
        );
        // ...and, with no flush per frame, there are at most about
        // bytes ÷ capacity writes (a payload larger than the buffer goes
        // out in one write of its own).
        assert!(
            reply_writes.len() >= batches.len(),
            "writes: {reply_writes:?}"
        );
        assert!(
            reply_writes.len() <= reply_bytes.div_ceil(WRITE_BUFFER) + 1,
            "writes: {reply_writes:?}"
        );
    }
}
