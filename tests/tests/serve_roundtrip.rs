//! End-to-end integration for `mosaic-serve`: a wire round-trip must be
//! an invisible transport. Concurrent TCP clients get results
//! **bit-identical** to in-process sessions over the planner-oracle
//! query shapes; server-side named prepared statements re-execute with
//! fresh params exactly like `Session::query_prepared`; per-connection
//! `SetOption` mirrors the session-override API (visibility, seed,
//! optimizer); and errors come back as stable typed codes — a prepared
//! statement whose table was dropped yields the same `Bind` error the
//! engine raises in-process, and the connection stays usable after it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mosaic_core::{MosaicEngine, MosaicError, Table, Visibility};
use mosaic_serve::protocol::{codes, read_frame, write_frame};
use mosaic_serve::{Client, Request, Response, ServeConfig, Server, ServerHandle};
use mosaic_storage::Value;

/// Aggregate-heavy template subset of the planner-oracle workload, all
/// deterministic at any thread count.
const TEMPLATES: &[&str] = &[
    "SELECT COUNT(*) FROM t",
    "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k",
    "SELECT SUM(i), AVG(f), MIN(i), MAX(f) FROM t",
    "SELECT k, i FROM t WHERE i > 40 ORDER BY i DESC, k LIMIT 20",
    "SELECT k, SUM(i) AS s FROM t WHERE i > 0 GROUP BY k ORDER BY s DESC, k LIMIT 5",
    "SELECT i, f FROM t WHERE i BETWEEN -10 AND 50 ORDER BY i, f LIMIT 25",
    "SELECT COUNT(*) FROM t WHERE f > 0.0 OR i < 0",
    "SELECT k, AVG(f) AS a, MIN(i), MAX(i) FROM t GROUP BY k ORDER BY k",
];

/// Seed a `t (k TEXT, i INT, f FLOAT)` table with NULLs in every column
/// and enough rows to span several morsels at small batch sizes.
fn seed_engine(rows: usize) -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::new());
    let mut sql = String::from("CREATE TABLE t (k TEXT, i INT, f FLOAT);\n");
    let mut values = Vec::with_capacity(rows);
    for r in 0..rows {
        let k = format!("'g{}'", r % 17);
        let i = if r % 7 == 0 {
            "NULL".into()
        } else {
            ((r % 200) as i64 - 60).to_string()
        };
        let f = if r % 9 == 0 {
            "NULL".into()
        } else {
            format!("{:.3}", (r as f64) * 0.5 - 55.0)
        };
        values.push(format!("({k}, {i}, {f})"));
    }
    for chunk in values.chunks(2048) {
        sql.push_str("INSERT INTO t VALUES ");
        sql.push_str(&chunk.join(", "));
        sql.push_str(";\n");
    }
    engine.session().execute(&sql).unwrap();
    engine
}

fn start(engine: Arc<MosaicEngine>, config: ServeConfig) -> ServerHandle {
    let server = Server::bind(engine, "127.0.0.1:0", config).unwrap();
    let (handle, _join) = server.spawn();
    handle
}

fn assert_identical(a: &Table, b: &Table, ctx: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{ctx}: row count");
    assert_eq!(a.num_columns(), b.num_columns(), "{ctx}: column count");
    for c in 0..a.num_columns() {
        let (fa, fb) = (a.schema().field(c), b.schema().field(c));
        assert_eq!(fa.name, fb.name, "{ctx}: field {c} name");
        assert_eq!(fa.data_type, fb.data_type, "{ctx}: field {c} type");
    }
    for r in 0..a.num_rows() {
        for c in 0..a.num_columns() {
            // `Value` equality is total and compares floats by bit
            // pattern, so this is literal bit-identity.
            assert_eq!(a.value(r, c), b.value(r, c), "{ctx}: cell ({r},{c})");
        }
    }
}

/// Many concurrent TCP clients, every template, every response
/// bit-identical to in-process execution on the same engine.
#[test]
fn concurrent_clients_bit_identical_to_in_process() {
    let engine = seed_engine(4_000);
    let session = engine.session();
    let expected: Vec<Table> = TEMPLATES
        .iter()
        .map(|sql| session.query(sql).unwrap())
        .collect();
    let handle = start(Arc::clone(&engine), ServeConfig::default());
    let addr = handle.addr().to_string();

    let workers: Vec<_> = (0..12)
        .map(|ci| {
            let addr = addr.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr.as_str()).unwrap();
                for round in 0..3 {
                    for (ti, sql) in TEMPLATES.iter().enumerate() {
                        let got = client.query(sql).unwrap();
                        assert_identical(
                            &got.table,
                            &expected[ti],
                            &format!("client {ci} round {round} template {ti}"),
                        );
                    }
                }
                client.close().unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(handle.permits_in_use(), 0, "permits must not leak");
    handle.shutdown();
}

/// The acceptance bar from the paper-repro roadmap: 100 concurrent
/// connections, all answers identical to in-process execution.
#[test]
fn hundred_concurrent_connections() {
    let engine = seed_engine(2_000);
    let session = engine.session();
    let expected: Vec<Table> = TEMPLATES
        .iter()
        .map(|sql| session.query(sql).unwrap())
        .collect();
    let handle = start(
        Arc::clone(&engine),
        ServeConfig::default().with_max_connections(128),
    );
    let addr = handle.addr().to_string();

    let workers: Vec<_> = (0..100)
        .map(|ci| {
            let addr = addr.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr.as_str()).unwrap();
                let ti = ci % TEMPLATES.len();
                let got = client.query(TEMPLATES[ti]).unwrap();
                assert_identical(&got.table, &expected[ti], &format!("client {ci}"));
                client.close().unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert!(handle.total_connections() >= 100);
    assert_eq!(handle.rejected_connections(), 0);
    assert_eq!(handle.permits_in_use(), 0);
    handle.shutdown();
}

/// Server-side named prepared statements: prepare once, re-execute with
/// fresh params, each result identical to direct in-process execution.
#[test]
fn named_prepared_reexecutes_with_fresh_params() {
    let engine = seed_engine(3_000);
    let session = engine.session();
    let handle = start(Arc::clone(&engine), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let sql = "SELECT k, COUNT(*) AS c, SUM(i) AS s FROM t WHERE i > ? GROUP BY k ORDER BY k";
    let param_count = client.prepare("hot", sql).unwrap();
    assert_eq!(param_count, 1);

    let prepared = session.prepare(sql).unwrap();
    for p in [-100i64, -10, 0, 25, 75, 10_000] {
        let got = client.execute_prepared("hot", &[Value::Int(p)]).unwrap();
        let want = session.query_prepared(&prepared, &[Value::Int(p)]).unwrap();
        assert_identical(&got.table, &want, &format!("param {p}"));
    }

    // Re-preparing under the same name replaces the old statement.
    client
        .prepare("hot", "SELECT COUNT(*) FROM t WHERE i > ?")
        .unwrap();
    let got = client.execute_prepared("hot", &[Value::Int(0)]).unwrap();
    let want = session.query("SELECT COUNT(*) FROM t WHERE i > 0").unwrap();
    assert_identical(&got.table, &want, "replaced prepared");
    client.close().unwrap();
    handle.shutdown();
}

/// Executing a prepared statement after its table is dropped surfaces
/// the engine's `Bind` error as wire code 6 — and the connection stays
/// usable afterwards.
#[test]
fn prepared_after_drop_is_a_clean_bind_error() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute("CREATE TABLE victim (x INT); INSERT INTO victim VALUES (1), (2);")
        .unwrap();
    let handle = start(Arc::clone(&engine), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    client
        .prepare("stale", "SELECT COUNT(*) FROM victim WHERE x > ?")
        .unwrap();
    client.query("DROP TABLE victim").unwrap();

    let err = client
        .execute_prepared("stale", &[Value::Int(0)])
        .unwrap_err();
    let wire = err.as_server().expect("server-side error expected");
    assert_eq!(wire.code, codes::BIND, "stale prepared must map to BIND");
    assert!(wire.message.contains("stale"), "message: {}", wire.message);

    // The connection survives the error.
    client.query("CREATE TABLE again (y INT)").unwrap();
    let got = client.query("SELECT COUNT(*) FROM again").unwrap();
    assert_eq!(got.table.value(0, 0), Value::Int(0));
    client.close().unwrap();
    handle.shutdown();
}

/// A multi-statement batch that fails midway reports the 0-based index
/// and text of the failing statement; earlier statements' effects
/// persist.
#[test]
fn batch_error_carries_statement_index_and_text() {
    let engine = Arc::new(MosaicEngine::new());
    let handle = start(Arc::clone(&engine), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let err = client
        .query(
            "CREATE TABLE batch_t (x INT); \
             SELECT nope FROM missing; \
             INSERT INTO batch_t VALUES (1)",
        )
        .unwrap_err();
    let wire = err.as_server().expect("server-side error expected");
    assert_eq!(wire.statement_index, Some(1));
    assert!(
        wire.statement_text.contains("missing"),
        "text: {}",
        wire.statement_text
    );

    // Statement 0 ran before the failure; statement 2 never did.
    let got = client.query("SELECT COUNT(*) FROM batch_t").unwrap();
    assert_eq!(got.table.value(0, 0), Value::Int(0));
    client.close().unwrap();
    handle.shutdown();
}

/// `(plan_hits, plan_misses)` of the engine's plan cache.
fn plan_counts(engine: &MosaicEngine) -> (u64, u64) {
    let s = engine.cache_stats();
    (s.plan_hits, s.plan_misses)
}

/// A `Query` frame runs the engine's one script loop: a cold
/// single-SELECT script probes the plan cache once (one miss), and the
/// same text again is one hit that answers identically.
#[test]
fn query_frame_probes_the_plan_cache_once() {
    let engine = seed_engine(100);
    let handle = start(Arc::clone(&engine), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let sql = "SELECT k FROM t";
    let (hits, misses) = plan_counts(&engine);
    let cold = client.query(sql).unwrap();
    assert_eq!(plan_counts(&engine), (hits, misses + 1), "cold: one miss");
    let warm = client.query(sql).unwrap();
    assert_eq!(
        plan_counts(&engine),
        (hits + 1, misses + 1),
        "warm: one hit"
    );
    assert_identical(&cold.table, &warm.table, "warm Query frame");
    client.close().unwrap();
    handle.shutdown();
}

/// A statement that binds but fails when executed returns one error
/// frame — code, statement 0 and its text without the `;` — whether its
/// plan was bound afresh or served from the plan cache. (A comparison
/// that meets a NaN is the one expression error the data decides.)
#[test]
fn execution_error_is_the_same_cold_and_hot() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE GLOBAL POPULATION Nobody (k TEXT);
             CREATE SAMPLE Empty AS (SELECT * FROM Nobody);",
        )
        .unwrap();
    let mut b = mosaic_storage::TableBuilder::new(mosaic_storage::Schema::new(vec![
        mosaic_storage::Field::new("f", mosaic_storage::DataType::Float),
    ]));
    for f in [1.0, f64::NAN] {
        b.push_row(vec![Value::Float(f)]).unwrap();
    }
    engine.register_table("n", b.finish()).unwrap();
    let handle = start(Arc::clone(&engine), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    for sql in [
        "SELECT COUNT(*) FROM n WHERE f > 0;",
        "SELECT f < 2 AS below FROM n;",
        "SELECT CLOSED COUNT(*) FROM Nobody ;",
    ] {
        let mut run = || client.query(sql).unwrap_err().as_server().cloned().unwrap();
        let (hits, _) = plan_counts(&engine);
        let cold = run();
        let hot = run();
        assert_eq!(
            plan_counts(&engine).0,
            hits + 1,
            "{sql}: the repeat is a plan hit"
        );
        assert_eq!(cold, hot, "{sql}");
        assert_eq!(cold.statement_index, Some(0), "{sql}");
        assert_eq!(
            cold.statement_text,
            sql.trim_end_matches([' ', ';']),
            "{sql}"
        );
        assert_ne!(cold.code, codes::PARSE, "{sql}: {}", cold.message);
    }
    client.close().unwrap();
    handle.shutdown();
}

/// An ill-typed expression is one `Bind` error, with one text, ad hoc,
/// prepared, through EXPLAIN and over the wire — over an empty table and
/// over an all-NULL column alike, where no value could show the
/// mismatch. A `?` is typed against the value it is bound to.
#[test]
fn type_errors_are_one_bind_error_everywhere() {
    let cases = [
        (
            "SELECT COUNT(*) FROM e WHERE k > 3",
            "bind error: cannot compare k (TEXT) with 3 (INT)",
        ),
        (
            "SELECT k + 1 FROM e",
            "bind error: non-numeric operand k (TEXT) of k + 1",
        ),
        (
            "SELECT b + 1 FROM e",
            "bind error: non-numeric operand b (BOOL) of b + 1",
        ),
    ];
    for rows in ["", "INSERT INTO e VALUES (NULL, NULL), (NULL, NULL);"] {
        let engine = Arc::new(MosaicEngine::new());
        let s = engine.session();
        s.execute(&format!("CREATE TABLE e (k TEXT, b BOOL); {rows}"))
            .unwrap();
        let handle = start(Arc::clone(&engine), ServeConfig::default());
        let mut client = Client::connect(handle.addr()).unwrap();
        for (sql, want) in cases {
            let ctx = format!(
                "{sql} over {:?}",
                if rows.is_empty() { "no rows" } else { "NULLs" }
            );
            let ad_hoc = s.execute(sql).unwrap_err();
            assert!(matches!(ad_hoc, MosaicError::Bind(_)), "{ctx}: {ad_hoc}");
            assert_eq!(ad_hoc.to_string(), want, "{ctx}: ad hoc");
            assert_eq!(
                s.prepare(sql).unwrap_err().to_string(),
                want,
                "{ctx}: prepare"
            );
            let explain = s.execute(&format!("EXPLAIN {sql}")).unwrap_err();
            assert_eq!(explain.to_string(), want, "{ctx}: EXPLAIN");
            let wire = client.query(sql).unwrap_err().as_server().cloned().unwrap();
            assert_eq!(wire.code, codes::BIND, "{ctx}: wire code");
            assert_eq!(wire.message, want, "{ctx}: wire");
        }
        let p = s.prepare("SELECT COUNT(*) FROM e WHERE k > ?").unwrap();
        let err = s.execute_prepared(&p, &[Value::Int(3)]).unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
        assert_eq!(err.to_string(), cases[0].1, "bound ?");
        assert_eq!(
            s.query_prepared(&p, &[Value::Str("a".into())])
                .unwrap()
                .value(0, 0),
            Value::Int(0)
        );
        client.close().unwrap();
        handle.shutdown();
    }
}

/// A client may write several requests before reading anything: each
/// reply is flushed when it is complete, not when the connection goes
/// idle, so two back-to-back queries and a `Close` get two whole
/// replies in order and then a clean close.
#[test]
fn pipelined_requests_get_in_order_replies_then_close() {
    let engine = seed_engine(500);
    let session = engine.session();
    let queries = [TEMPLATES[1], TEMPLATES[0]];
    let expected: Vec<Table> = queries.iter().map(|q| session.query(q).unwrap()).collect();
    let handle = start(Arc::clone(&engine), ServeConfig::default());

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut requests = Vec::new();
    for req in queries
        .iter()
        .map(|q| Request::Query { sql: q.to_string() })
        .chain([Request::Close])
    {
        let (ty, payload) = req.encode();
        write_frame(&mut requests, ty, &payload).unwrap();
    }
    stream.write_all(&requests).unwrap();

    let mut next = || {
        let (ty, payload) = read_frame(&mut stream)
            .expect("reply before timeout")
            .expect("frame before close");
        Response::decode(ty, &payload).unwrap()
    };
    assert!(matches!(next(), Response::Hello { .. }));
    for (qi, want) in expected.iter().enumerate() {
        assert!(matches!(next(), Response::Schema { .. }), "query {qi}");
        let mut rows = Vec::new();
        loop {
            match next() {
                Response::RowBatch { rows: r } => rows.extend(r),
                Response::Done { .. } => break,
                other => panic!("query {qi}: unexpected frame {other:?}"),
            }
        }
        assert_eq!(rows.len(), want.num_rows(), "query {qi}");
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row, &want.row(r), "query {qi} row {r}");
        }
    }
    assert!(
        read_frame(&mut stream).unwrap().is_none(),
        "server must close after Close"
    );
    assert_eq!(handle.permits_in_use(), 0);
    handle.shutdown();
}

/// Wire error codes are stable per engine error variant.
#[test]
fn error_codes_are_stable() {
    let engine = Arc::new(MosaicEngine::new());
    engine.session().execute("CREATE TABLE e (x INT)").unwrap();
    let handle = start(Arc::clone(&engine), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let code_of = |e: mosaic_serve::ClientError| -> u16 {
        e.as_server().expect("server error expected").code
    };
    assert_eq!(
        code_of(client.query("SELEC typo").unwrap_err()),
        codes::PARSE
    );
    assert_eq!(
        code_of(client.query("SELECT * FROM no_such_table").unwrap_err()),
        codes::CATALOG
    );
    assert_eq!(
        code_of(client.execute_prepared("never_prepared", &[]).unwrap_err()),
        codes::UNKNOWN_PREPARED
    );
    assert_eq!(
        code_of(client.set_option("flux_capacitor", "on").unwrap_err()),
        codes::UNKNOWN_OPTION
    );
    // The connection is still usable after every error above.
    let got = client.query("SELECT COUNT(*) FROM e").unwrap();
    assert_eq!(got.table.value(0, 0), Value::Int(0));
    client.close().unwrap();
    handle.shutdown();
}

/// `SetOption` mirrors the in-process session-knob API: a connection
/// that sets `visibility` / `seed` answers exactly like a `Session`
/// carrying the same knobs, `optimizer on|off` is bit-identical (the
/// optimizer is a pure plan rewrite), every boolean spelling and key
/// alias of the knob parser is accepted, and a rejected value leaves the
/// connection usable.
#[test]
fn set_option_matches_session_overrides() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE TABLE Eurostat (country TEXT, reported_count INT);
             INSERT INTO Eurostat VALUES ('UK', 30000), ('FR', 20000);
             CREATE GLOBAL POPULATION EuropeMigrants (country TEXT);
             CREATE METADATA EuropeMigrants_M1 AS
               (SELECT country, reported_count FROM Eurostat);
             CREATE SAMPLE YahooMigrants AS (SELECT * FROM EuropeMigrants);
             INSERT INTO YahooMigrants VALUES ('UK'), ('UK'), ('FR');",
        )
        .unwrap();
    let handle = start(Arc::clone(&engine), ServeConfig::default());

    let pop_query =
        "SELECT country, COUNT(*) FROM EuropeMigrants GROUP BY country ORDER BY country";

    // visibility: the wire session's default drives unannotated queries.
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_option("visibility", "semi-open").unwrap();
    let got = client.query(pop_query).unwrap();
    let want = engine
        .session()
        .with_default_visibility(Visibility::SemiOpen)
        .query(pop_query)
        .unwrap();
    assert_identical(&got.table, &want, "semi-open visibility");
    assert_eq!(got.visibility, Some(Visibility::SemiOpen));

    client.set_option("visibility", "closed").unwrap();
    let got = client.query(pop_query).unwrap();
    let want = engine
        .session()
        .with_default_visibility(Visibility::Closed)
        .query(pop_query)
        .unwrap();
    assert_identical(&got.table, &want, "closed visibility");

    // seed: OPEN queries are deterministic given the same seed.
    client.set_option("visibility", "open").unwrap();
    client.set_option("seed", "42").unwrap();
    let got = client.query(pop_query).unwrap();
    let want = engine
        .session()
        .with_default_visibility(Visibility::Open)
        .with_seed(42)
        .query(pop_query)
        .unwrap();
    assert_identical(&got.table, &want, "open visibility, seed 42");

    // optimizer on/off must be bit-identical.
    client.set_option("visibility", "closed").unwrap();
    let agg = "SELECT country, COUNT(*) AS c FROM Eurostat \
               WHERE reported_count > 0 GROUP BY country ORDER BY c DESC, country LIMIT 1";
    client.set_option("optimizer", "off").unwrap();
    let off = client.query(agg).unwrap();
    client.set_option("optimizer", "on").unwrap();
    let on = client.query(agg).unwrap();
    assert_identical(&off.table, &on.table, "optimizer on vs off");

    // Every spelling goes through the one knob parser: `false` and `0`
    // turn a switch off and `parallelism` is the `threads` alias — each
    // visible in the connection's EXPLAIN, none changing the answer.
    let explain = |client: &mut Client| -> String {
        let plan = client.query(&format!("EXPLAIN {agg}")).unwrap().table;
        (0..plan.num_rows())
            .map(|r| plan.value(r, 0).to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    client.set_option("optimizer", "false").unwrap();
    client.set_option("result_cache", "0").unwrap();
    client.set_option("parallelism", "1").unwrap();
    let text = explain(&mut client);
    assert!(text.contains("optimizer: off"), "{text}");
    assert!(text.contains("result cache: off"), "{text}");
    assert!(text.contains("parallelism: 1 worker thread(s)"), "{text}");
    for run in 0..2 {
        let got = client.query(agg).unwrap();
        assert!(
            !got.notes.iter().any(|n| n.starts_with("result cache hit")),
            "result_cache=0 must never hit"
        );
        assert_identical(&got.table, &on.table, &format!("knobs off, run {run}"));
    }

    // A rejected value is an UNKNOWN_OPTION frame carrying the parser's
    // message; the knob keeps its value and the connection keeps working.
    let err = client.set_option("threads", "0").unwrap_err();
    let wire = err.as_server().expect("server-side error expected");
    assert_eq!(wire.code, codes::UNKNOWN_OPTION);
    assert!(wire.message.contains("threads"), "{}", wire.message);
    let text = explain(&mut client);
    assert!(text.contains("parallelism: 1 worker thread(s)"), "{text}");
    let got = client.query(agg).unwrap();
    assert_identical(&got.table, &on.table, "after a rejected option");

    client.close().unwrap();
    handle.shutdown();
}
