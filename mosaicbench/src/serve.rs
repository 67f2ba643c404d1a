//! `serve_hot` and `serve_rw`: wire clients against the in-process
//! `mosaic-serve` server, result cache at its default. On `serve_hot`
//! three closed-loop connections draw from a zipf-skewed statement mix whose
//! results all fit the cache, so `serve` and `core::cache` do nearly all
//! the work and the executor idles. On `serve_rw` one more connection
//! writes on an open-loop schedule; every INSERT bumps `t`'s epoch and
//! invalidates every cached result that reads `t`, so the readers
//! alternate between refill misses and hits.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mosaic_core::{MosaicEngine, Table, Value};
use mosaic_serve::protocol::{read_frame, write_frame};
use mosaic_serve::{Client, Request, Response, ServeConfig, Server, ServerHandle};
use mosaic_storage::{Field, Schema, TableBuilder};

use crate::closed_scan::{engine_with_tables, reference_session};
use crate::gen::{self, SplitMix};
use crate::harness::{
    ctx_switch_delta, process_threads, tables_identical, task_ctx_switches, thread_ctx_switches,
    Finish, Metric, OpLog, RunConfig, Sizes, Window, Workload, SLICES,
};
use crate::stats;
use crate::trace::Recorder;

/// Zipf exponent of the statement mix (as `loadgen`).
const ZIPF_S: f64 = 1.1;
/// Closed-loop reader connections on both wire workloads: one more than
/// the reference box has cores. A blocking reader and its server thread
/// take turns, so with a reader per core (or fewer) a core falls idle at
/// every hand-over and the guest pays the hypervisor to wake it: one
/// reader's 50 us round trip fell to 16-36 us as soon as anything else
/// kept the second core awake, and two readers ran in one of two modes,
/// 19 000 or 47 000 ops/s on `serve_rw`, for 4-47 % of a run. With a third
/// reader some thread is always runnable on each core, no core halts, and
/// the slice rates have one mode (run-to-run spread 2-4 % against
/// 12-19 %). `serve_rw`'s writer is one more connection, asleep 99 % of
/// the time.
const READERS: usize = 3;
const PREPARED_NAME: &str = "hot";
const PREPARED_SQL: &str = "SELECT k, COUNT(*) AS c FROM t WHERE i > ? GROUP BY k ORDER BY k";
const COUNT_SQL: &str = "SELECT COUNT(*) FROM t";

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stmt {
    Sql(&'static str),
    /// The named prepared statement with this `?` value.
    Prepared(i64),
}

impl Stmt {
    /// The statement as ad-hoc SQL (for the in-process oracle).
    pub fn sql(self) -> String {
        match self {
            Stmt::Sql(s) => s.to_string(),
            Stmt::Prepared(p) => PREPARED_SQL.replacen('?', &p.to_string(), 1),
        }
    }

    fn reads_t(self) -> bool {
        !matches!(self, Stmt::Sql(s) if s.contains("FROM d"))
    }
}

/// The statement mix in zipf-rank order: `loadgen`'s twelve templates and
/// its prepared statement × four parameters, plus two templates that read
/// only `d` (ranks 3 and 6) so that some cached results survive every
/// write on `serve_rw`. Eighteen small results: the working set fits the
/// result cache many times over.
pub const MIX: [Stmt; 18] = [
    Stmt::Sql(COUNT_SQL),
    Stmt::Sql("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k"),
    Stmt::Sql("SELECT grp, COUNT(*) AS c, SUM(boost) AS b FROM d GROUP BY grp ORDER BY grp"),
    Stmt::Sql("SELECT SUM(i), AVG(f), MIN(i), MAX(f) FROM t"),
    Stmt::Prepared(0),
    Stmt::Sql("SELECT k, boost FROM d WHERE boost > 3 ORDER BY k"),
    Stmt::Sql("SELECT k, i FROM t WHERE i > 100 ORDER BY i DESC, k LIMIT 20"),
    Stmt::Sql("SELECT k, SUM(i) AS s FROM t WHERE i > 0 GROUP BY k ORDER BY s DESC, k LIMIT 5"),
    Stmt::Prepared(50),
    Stmt::Sql("SELECT i FROM t WHERE i BETWEEN -10 AND 50 ORDER BY i LIMIT 25"),
    Stmt::Sql("SELECT COUNT(*) FROM t WHERE f > 0.0 OR i < 0"),
    Stmt::Sql("SELECT k, AVG(f) AS a, MIN(i), MAX(i) FROM t GROUP BY k ORDER BY k"),
    Stmt::Prepared(100),
    Stmt::Sql("SELECT k, i, f FROM t ORDER BY f DESC, i, k LIMIT 50"),
    Stmt::Sql("SELECT i, k FROM t WHERE i IS NOT NULL ORDER BY i, k DESC LIMIT 100"),
    Stmt::Sql(
        "SELECT d.grp AS grp, COUNT(*) AS c, SUM(t.i) AS s FROM t JOIN d ON t.k = d.k \
         GROUP BY d.grp ORDER BY grp",
    ),
    Stmt::Prepared(250),
    Stmt::Sql(
        "SELECT t.k, d.boost, t.i FROM t JOIN d ON t.k = d.k \
         WHERE t.i > 200 ORDER BY t.i DESC, t.k, d.boost LIMIT 30",
    ),
];

// ------------------------------------------------------------ connections

/// What the window needs from a reply.
struct Reply {
    table: Table,
    cache_hit: bool,
}

fn is_cache_hit(notes: &[String]) -> bool {
    notes.iter().any(|n| n.starts_with("result cache hit"))
}

/// A connection that exposes the protocol's stages — request encode,
/// round trip, response decode — which the blocking `Client` fuses. Used
/// only by traced windows.
struct StagedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl StagedClient {
    fn connect(addr: SocketAddr) -> Result<StagedClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).ok();
        let mut c = StagedClient {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: BufWriter::new(stream),
        };
        match c.read()? {
            Response::Hello { .. } => {}
            other => return Err(format!("expected Hello, got {other:?}")),
        }
        c.send(&Request::Prepare {
            name: PREPARED_NAME.into(),
            sql: PREPARED_SQL.into(),
        })?;
        match c.read()? {
            Response::PrepareOk { .. } => Ok(c),
            other => Err(format!("expected PrepareOk, got {other:?}")),
        }
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        let (ty, payload) = req.encode();
        write_frame(&mut self.writer, ty, &payload).map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())
    }

    fn read(&mut self) -> Result<Response, String> {
        let (ty, payload) = read_frame(&mut self.reader)
            .map_err(|e| format!("{e:?}"))?
            .ok_or("server closed the connection")?;
        Response::decode(ty, &payload).map_err(|e| e.to_string())
    }

    /// One request inside `op` ⊃ `serve.roundtrip` ⊃
    /// (`serve.request_encode`, `serve.response_decode`).
    fn staged(&mut self, rec: &mut Recorder, stmt: Stmt) -> Result<Reply, String> {
        let request = match stmt {
            Stmt::Sql(sql) => Request::Query { sql: sql.into() },
            Stmt::Prepared(p) => Request::ExecutePrepared {
                name: PREPARED_NAME.into(),
                params: vec![Value::Int(p)],
            },
        };
        let trace = rec.new_trace();
        rec.span(trace, None, "op", |rec, op| {
            rec.span(trace, Some(op), "serve.roundtrip", |rec, rt| {
                let (ty, payload) = rec.span(trace, Some(rt), "serve.request_encode", |_, _| {
                    request.encode()
                });
                write_frame(&mut self.writer, ty, &payload).map_err(|e| e.to_string())?;
                self.writer.flush().map_err(|e| e.to_string())?;
                let mut fields = Vec::new();
                let mut rows = Vec::new();
                loop {
                    let (ty, payload) = read_frame(&mut self.reader)
                        .map_err(|e| format!("{e:?}"))?
                        .ok_or("server closed the connection")?;
                    let response = rec
                        .span(trace, Some(rt), "serve.response_decode", |_, _| {
                            Response::decode(ty, &payload)
                        })
                        .map_err(|e| e.to_string())?;
                    match response {
                        Response::Schema { fields: f } => fields = f,
                        Response::RowBatch { rows: r } => rows.extend(r),
                        Response::Done { notes, .. } => {
                            return Ok(Reply {
                                table: assemble(&fields, rows)?,
                                cache_hit: is_cache_hit(&notes),
                            })
                        }
                        other => return Err(format!("unexpected frame {other:?}")),
                    }
                }
            })
        })
    }
}

/// Rebuild a result table from its wire frames (what `Client` does
/// internally).
fn assemble(fields: &[mosaic_serve::WireField], rows: Vec<Vec<Value>>) -> Result<Table, String> {
    let schema = Schema::new(
        fields
            .iter()
            .map(|f| {
                if f.nullable {
                    Field::new(f.name.clone(), f.data_type)
                } else {
                    Field::required(f.name.clone(), f.data_type)
                }
            })
            .collect(),
    );
    let mut b = TableBuilder::new(schema);
    for row in rows {
        b.push_row(row).map_err(|e| e.to_string())?;
    }
    Ok(b.finish())
}

fn plain(client: &mut Client, stmt: Stmt) -> Result<Reply, String> {
    let r = match stmt {
        Stmt::Sql(sql) => client.query(sql),
        Stmt::Prepared(p) => client.execute_prepared(PREPARED_NAME, &[Value::Int(p)]),
    }
    .map_err(|e| e.to_string())?;
    Ok(Reply {
        cache_hit: is_cache_hit(&r.notes),
        table: r.table,
    })
}

// --------------------------------------------------------------- open loop

/// Open-loop accounting for the writer: every write is charged from the
/// time it was *due*, so a stall also counts the wait it imposes on the
/// writes queued behind it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpenLoopLog {
    /// `done − due` per acknowledged write, seconds.
    pub latencies: Vec<f64>,
    /// `sent − due` per write sent, seconds: how late the generator ran.
    pub lags: Vec<f64>,
}

impl OpenLoopLog {
    /// Times are offsets from the schedule's start, seconds.
    pub fn record(&mut self, due: f64, sent: f64, done: f64) {
        self.lags.push((sent - due).max(0.0));
        self.latencies.push(done - due);
    }
}

/// Slots `0, period, 2·period, …` strictly before `window`.
pub fn slots_due(window: Duration, period: Duration) -> u64 {
    window.as_nanos().div_ceil(period.as_nanos()) as u64
}

// ---------------------------------------------------------------- workload

pub struct Inputs {
    fact_csv: String,
    dim_csv: String,
    seed: u64,
}

pub struct Serve<const RW: bool> {
    engine: Arc<MosaicEngine>,
    handle: ServerHandle,
    acceptor: JoinHandle<()>,
    /// The readers; on `serve_rw` the writer follows them.
    clients: Vec<Client>,
    staged: Vec<StagedClient>,
    expected: Vec<Table>,
    reader_rngs: Vec<SplitMix>,
    write_rng: SplitMix,
    insert_rows: usize,
    write_period: Duration,
    initial_count: i64,
    last_count: i64,
    writes_acked: u64,
    /// Threads of the process that are not the server's (the main thread
    /// and, in a test run, the harness's), taken before the server starts.
    threads_before_server: u64,
}

pub type ServeHot = Serve<false>;
pub type ServeRw = Serve<true>;

/// What one connection thread brings back from a window.
#[derive(Default)]
struct ConnResult {
    log: OpLog,
    attempted: u64,
    failed: u64,
    spans: Vec<crate::trace::Span>,
    ctx_switches: u64,
    last_count: i64,
    writes: OpenLoopLog,
    missed_slots: u64,
    errors: Vec<String>,
}

/// State the reader's checks need.
struct ReadChecks<'a> {
    expected: &'a [Table],
    rw: bool,
    initial_count: i64,
    insert_rows: usize,
    writes_sent: &'a AtomicU64,
}

impl ReadChecks<'_> {
    /// `serve_hot`: every reply is the precomputed answer. `serve_rw`:
    /// `d`-only replies are; `COUNT(*)` never decreases and stays within
    /// what the writes sent so far allow; the other replies depend on how
    /// many writes have landed and are checked after the window, once the
    /// writer has stopped.
    fn ok(&self, rank: usize, reply: &Table, last_count: &mut i64) -> bool {
        if !self.rw || !MIX[rank].reads_t() {
            return tables_identical(reply, &self.expected[rank]);
        }
        if MIX[rank] == Stmt::Sql(COUNT_SQL) {
            let Some(n) = (reply.num_rows() == 1)
                .then(|| reply.value(0, 0).as_i64())
                .flatten()
            else {
                return false;
            };
            let ceiling = self.initial_count
                + (self.insert_rows as u64 * self.writes_sent.load(Ordering::SeqCst)) as i64;
            let ok = n >= *last_count && n <= ceiling;
            *last_count = (*last_count).max(n);
            return ok;
        }
        reply.num_columns() == self.expected[rank].num_columns()
    }
}

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    client: &mut Client,
    staged: Option<&mut StagedClient>,
    mut rec: Option<Recorder>,
    rng: &mut SplitMix,
    cdf: &[f64],
    checks: &ReadChecks<'_>,
    mut last_count: i64,
    duration: Duration,
) -> ConnResult {
    let mut out = ConnResult::default();
    let ctx0 = thread_ctx_switches();
    let mut staged = staged;
    let slice = duration / SLICES;
    let start = Instant::now();
    while start.elapsed() < duration {
        let rank = gen::draw(cdf, rng);
        out.attempted += 1;
        let t0 = Instant::now();
        let reply = match (rec.as_mut(), staged.as_deref_mut()) {
            (Some(rec), Some(conn)) => conn.staged(rec, MIX[rank]),
            _ => plain(client, MIX[rank]),
        };
        let latency = t0.elapsed();
        out.log.mark_elapsed(start.elapsed(), slice);
        match reply {
            Ok(reply) if checks.ok(rank, &reply.table, &mut last_count) => {
                out.log.push(rank, reply.cache_hit, latency)
            }
            Ok(_) => out.failed += 1,
            Err(e) => {
                // A broken connection fails every later op at once;
                // stop instead of spinning on it.
                out.failed += 1;
                out.errors.push(e);
                break;
            }
        }
    }
    out.log.mark_elapsed(start.elapsed(), slice);
    out.last_count = last_count;
    out.ctx_switches = thread_ctx_switches() - ctx0;
    out.spans = rec.map(|r| r.spans).unwrap_or_default();
    out
}

/// The open-loop writer: one INSERT per slot, never before the slot is
/// due, as soon as possible after. Slots still unsent when the window
/// closes are missed.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    client: &mut Client,
    mut rec: Option<Recorder>,
    rng: &mut SplitMix,
    insert_rows: usize,
    period: Duration,
    writes_sent: &AtomicU64,
    duration: Duration,
) -> ConnResult {
    let mut out = ConnResult::default();
    let ctx0 = thread_ctx_switches();
    let start = Instant::now();
    let slots = slots_due(duration, period);
    for slot in 0..slots {
        let due = period * slot as u32;
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        if start.elapsed() >= duration {
            out.missed_slots = slots - slot;
            break;
        }
        let sql = gen::insert_sql(insert_rows, rng);
        out.attempted += 1;
        writes_sent.fetch_add(1, Ordering::SeqCst);
        let sent = start.elapsed();
        let result = match rec.as_mut() {
            Some(rec) => {
                let trace = rec.new_trace();
                rec.span(trace, None, "serve.write", |_, _| client.query(&sql))
            }
            None => client.query(&sql),
        };
        let done = start.elapsed();
        match result {
            Ok(_) => out
                .writes
                .record(due.as_secs_f64(), sent.as_secs_f64(), done.as_secs_f64()),
            Err(e) => {
                out.failed += 1;
                out.errors.push(e.to_string());
                break;
            }
        }
    }
    out.failed += out.missed_slots;
    out.attempted += out.missed_slots;
    out.ctx_switches = thread_ctx_switches() - ctx0;
    out.spans = rec.map(|r| r.spans).unwrap_or_default();
    out
}

impl<const RW: bool> Workload for Serve<RW> {
    type Inputs = Inputs;

    fn generate(cfg: &RunConfig, sizes: &Sizes) -> Inputs {
        Inputs {
            fact_csv: gen::fact_csv(
                if RW {
                    sizes.serve_rw_rows
                } else {
                    sizes.serve_rows
                },
                cfg.seed,
            ),
            dim_csv: gen::dim_csv(),
            seed: cfg.seed,
        }
    }

    fn setup_repeats(quick: bool) -> usize {
        if quick {
            2
        } else {
            5
        }
    }

    /// Ingest, bind, accept, connect and prepare on each connection.
    fn setup(inputs: &Inputs, _cfg: &RunConfig, sizes: &Sizes) -> Self {
        let threads_before_server = process_threads();
        let engine = engine_with_tables(&inputs.fact_csv, &inputs.dim_csv);
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default())
            .expect("bind 127.0.0.1:0");
        let (handle, acceptor) = server.spawn();
        let clients = (0..READERS + RW as usize)
            .map(|_| {
                let mut c = Client::connect(handle.addr()).expect("connect to own server");
                c.prepare(PREPARED_NAME, PREPARED_SQL).expect("prepare");
                c
            })
            .collect();
        Serve {
            engine,
            handle,
            acceptor,
            clients,
            staged: Vec::new(),
            expected: Vec::new(),
            reader_rngs: (0..READERS)
                .map(|c| SplitMix::stream(inputs.seed, &format!("conn{c}")))
                .collect(),
            write_rng: SplitMix::stream(inputs.seed, "writes"),
            insert_rows: sizes.insert_rows,
            write_period: sizes.write_period,
            initial_count: 0,
            last_count: 0,
            writes_acked: 0,
            threads_before_server,
        }
    }

    fn prepare_checks(&mut self, _inputs: &Inputs) {
        let reference = reference_session(&self.engine);
        self.expected = MIX
            .iter()
            .map(|s| {
                reference
                    .query(&s.sql())
                    .expect("statement runs in-process")
            })
            .collect();
        self.initial_count = self.expected[0]
            .value(0, 0)
            .as_i64()
            .expect("COUNT(*) is an integer");
        self.last_count = self.initial_count;
    }

    fn window(&mut self, duration: Duration, trace_origin: Option<Instant>) -> Window {
        if trace_origin.is_some() && self.staged.is_empty() {
            self.staged = (0..READERS)
                .map(|_| StagedClient::connect(self.handle.addr()).expect("staged connect"))
                .collect();
        }
        let cdf = gen::zipf_cdf(MIX.len(), ZIPF_S);
        let writes_sent = AtomicU64::new(self.writes_acked);
        let checks = ReadChecks {
            expected: &self.expected,
            rw: RW,
            initial_count: self.initial_count,
            insert_rows: self.insert_rows,
            writes_sent: &writes_sent,
        };
        let recorder = |conn: u64| trace_origin.map(|o| Recorder::new(o, (conn + 1) << 40));
        let tasks_before = task_ctx_switches();
        let start = Instant::now();
        let (reader_clients, writer_client) = self.clients.split_at_mut(READERS);
        let (insert_rows, period, last_count) =
            (self.insert_rows, self.write_period, self.last_count);
        let write_rng = &mut self.write_rng;
        let mut staged = self.staged.iter_mut();
        let (readers, mut writer): (Vec<ConnResult>, ConnResult) = std::thread::scope(|s| {
            let mut threads = Vec::new();
            let mut writer = None;
            for ((i, client), rng) in reader_clients
                .iter_mut()
                .enumerate()
                .zip(self.reader_rngs.iter_mut())
            {
                let (cdf, checks, rec, conn) = (&cdf, &checks, recorder(i as u64), staged.next());
                threads.push(s.spawn(move || {
                    reader_loop(client, conn, rec, rng, cdf, checks, last_count, duration)
                }));
            }
            if let Some(client) = writer_client.first_mut() {
                let (sent, rec) = (&writes_sent, recorder(READERS as u64));
                writer = Some(s.spawn(move || {
                    writer_loop(client, rec, write_rng, insert_rows, period, sent, duration)
                }));
            }
            let join = |t: std::thread::ScopedJoinHandle<'_, ConnResult>| {
                t.join().expect("connection thread panicked")
            };
            (
                threads.into_iter().map(join).collect(),
                writer.map(join).unwrap_or_default(),
            )
        });
        let wall_s = start.elapsed().as_secs_f64();
        let server_switches = ctx_switch_delta(&tasks_before, &task_ctx_switches());

        let mut win = Window {
            wall_s,
            ..Window::default()
        };
        let mut hits = Vec::new();
        let mut switches = server_switches;
        self.writes_acked += writer.writes.latencies.len() as u64;
        let writes = std::mem::take(&mut writer.writes);
        for r in readers.into_iter().chain([writer]) {
            hits.extend(r.log.hit_latencies_s());
            if r.log.len() > 0 {
                win.logs.push(r.log);
            }
            win.attempted += r.attempted;
            win.failed += r.failed;
            win.spans.extend(r.spans);
            win.warnings.extend(r.errors);
            switches += r.ctx_switches;
            self.last_count = self.last_count.max(r.last_count);
        }
        let reads = win.ops().max(1) as f64;
        win.extra = vec![
            Metric::new(
                "serve.wire.hit_roundtrip_us",
                stats::median(&hits) * 1e6,
                "us",
            )
            .with_note(format!("n={}", hits.len())),
            Metric::new("serve.wire.hit_share", hits.len() as f64 / reads, "ratio"),
            Metric::new(
                "serve.server.ctx_switches_per_op",
                switches as f64 / reads,
                "count",
            ),
        ];
        if RW {
            let lat = stats::sorted(writes.latencies.iter().map(|l| l * 1e3).collect());
            let tail = stats::tail(&lat, 0.90);
            win.extra.extend([
                Metric::new("write_p50_ms", stats::percentile(&lat, 0.5), "ms")
                    .with_note(format!("n={}", lat.len())),
                Metric::new("write_tail_ms", tail.value, "ms").with_note(format!(
                    "p90, n={}, {} beyond",
                    lat.len(),
                    tail.beyond
                )),
                Metric::new(
                    "sched_lag_ms",
                    stats::percentile(&stats::sorted(writes.lags.clone()), 0.5) * 1e3,
                    "ms",
                )
                .with_note("median send lateness"),
            ]);
        }
        win
    }

    fn engine(&self) -> &Arc<MosaicEngine> {
        &self.engine
    }

    fn class_balanced() -> bool {
        false
    }

    fn teardown(self) {
        self.shutdown();
    }

    fn finish(mut self, _inputs: &Inputs) -> Finish {
        let mut finish = Finish::default();
        let mut check = |ok: bool, what: String| {
            finish.attempted += 1;
            if !ok {
                finish.failed += 1;
                finish.warnings.push(what);
            }
        };
        if RW {
            // The writer has stopped: the table must hold exactly the
            // acknowledged writes, and no stale entry may survive in the
            // cache — every statement over the wire (cache on) equals a
            // fresh in-process cache-off session.
            let want = self.initial_count + (self.insert_rows as u64 * self.writes_acked) as i64;
            let fresh = reference_session(&self.engine);
            for stmt in MIX {
                let wire = plain(&mut self.clients[0], stmt).map(|r| r.table);
                let local = fresh.query(&stmt.sql());
                let same = matches!((&wire, &local), (Ok(w), Ok(l)) if tables_identical(w, l));
                check(
                    same,
                    format!("stale or wrong reply after writes: {}", stmt.sql()),
                );
                if stmt == Stmt::Sql(COUNT_SQL) {
                    let got = wire.ok().and_then(|t| t.value(0, 0).as_i64());
                    check(
                        got == Some(want),
                        format!("COUNT(*) is {got:?}, acknowledged writes imply {want}"),
                    );
                }
            }
        }
        let threads = process_threads().saturating_sub(self.threads_before_server);
        let (peak, rejected, in_use) = (
            self.handle.permit_peak(),
            self.handle.rejected_connections(),
            self.handle.permits_in_use(),
        );
        check(in_use == 0, format!("{in_use} worker permits still held"));
        check(rejected == 0, format!("{rejected} connections rejected"));
        let threads_after = self.shutdown();
        check(
            threads_after.is_some(),
            "the acceptor thread panicked".into(),
        );
        finish.extra = vec![
            Metric::new("serve.admission.permit_peak", peak as f64, "count"),
            Metric::new("serve.server.rejected", rejected as f64, "count"),
            Metric::new("serve.server.threads", threads as f64, "count")
                .with_note("acceptor + one per open connection"),
            Metric::new(
                "serve.server.threads_after",
                threads_after.map_or(f64::NAN, |t| t as f64),
                "count",
            )
            .with_note("after shutdown; a leak shows as > 0"),
        ];
        finish
    }
}

impl<const RW: bool> Serve<RW> {
    /// Close every connection, stop the acceptor and join it; returns the
    /// server threads left afterwards (`None` if the acceptor panicked).
    fn shutdown(self) -> Option<u64> {
        let Serve {
            handle,
            acceptor,
            clients,
            staged,
            threads_before_server,
            ..
        } = self;
        for c in clients {
            let _ = c.close();
        }
        drop(staged);
        let patience = Instant::now() + Duration::from_secs(2);
        while handle.active_connections() > 0 && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.shutdown();
        acceptor.join().ok()?;
        // A connection thread decrements the counter just before it
        // returns; give the kernel a moment to reap it.
        let patience = Instant::now() + Duration::from_millis(50);
        let mut left = process_threads().saturating_sub(threads_before_server);
        while left > 0 && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(1));
            left = process_threads().saturating_sub(threads_before_server);
        }
        Some(left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_write_is_charged_from_its_due_time() {
        // Period 0.1 s. Write 0 stalls for 0.25 s, so writes 1 and 2 are
        // sent late; each is still charged from when it was due.
        let mut log = OpenLoopLog::default();
        log.record(0.0, 0.0, 0.25);
        log.record(0.1, 0.25, 0.26);
        log.record(0.2, 0.26, 0.27);
        log.record(0.3, 0.3, 0.31);
        let expect = [0.25, 0.16, 0.07, 0.01];
        for (got, want) in log.latencies.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        let lags: Vec<f64> = log.lags.iter().map(|l| (l * 1e3).round()).collect();
        assert_eq!(lags, [0.0, 150.0, 60.0, 0.0]);
        // A send that is early by clock jitter is not negative lateness.
        log.record(0.4, 0.3999, 0.41);
        assert_eq!(*log.lags.last().unwrap(), 0.0);
    }

    #[test]
    fn slots_cover_the_window() {
        let ms = Duration::from_millis;
        assert_eq!(slots_due(ms(10_000), ms(100)), 100);
        assert_eq!(slots_due(ms(250), ms(100)), 3);
        assert_eq!(slots_due(ms(50), ms(100)), 1);
    }

    #[test]
    fn the_mix_keeps_d_only_statements_hot() {
        assert_eq!(MIX[0], Stmt::Sql(COUNT_SQL));
        let d_only: Vec<usize> = (0..MIX.len()).filter(|&i| !MIX[i].reads_t()).collect();
        assert_eq!(d_only, [2, 5]);
        assert_eq!(Stmt::Prepared(50).sql(), PREPARED_SQL.replace('?', "50"));
    }
}
