//! Wire-protocol robustness for `mosaic-serve`. The codec must be
//! *total* — any byte string decodes to a message or a `DecodeError`,
//! never a panic — and the server must answer malformed, truncated,
//! oversized, and out-of-order frames with clean typed protocol errors
//! while never wedging the acceptor or leaking an admission permit.
//! Property tests fuzz the codec (round-trips over arbitrary values
//! including raw float bit patterns, then fully arbitrary payloads);
//! the TCP tests speak raw bytes at a live server.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use mosaic_core::MosaicEngine;
use mosaic_serve::protocol::{codes, read_frame, write_frame, ROWS_PER_BATCH};
use mosaic_serve::{
    Client, Request, Response, ServeConfig, Server, ServerHandle, WireError, WireField, MAX_FRAME,
};
use mosaic_sql::Visibility;
use mosaic_storage::{DataType, Field, Schema, TableBuilder, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

// ---------------------------------------------------------------------
// Codec property tests (no sockets). The vendored proptest subset has
// no combinators, so the message strategies are hand-rolled `Strategy`
// impls drawing directly from the case RNG.
// ---------------------------------------------------------------------

/// Strings over a mixed alphabet: ASCII, quotes, NULs, and multi-byte
/// code points — length-prefixed UTF-8 must carry all of them.
fn arb_string(rng: &mut StdRng, max_len: usize) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', '9', ' ', '\'', '"', '_', ';', '\0', '\n', 'é', '世', '🦀',
    ];
    let len = rng.random_range(0..max_len);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect()
}

/// Arbitrary wire values, including NaN payloads, infinities, and -0.0
/// via raw bit patterns — the codec ships floats as bits, so every
/// pattern must survive.
fn arb_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0u8..5) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_range(0u8..2) == 1),
        2 => Value::Int(rng.random_range(i64::MIN..i64::MAX)),
        3 => Value::Float(f64::from_bits(rng.random_range(0u64..u64::MAX))),
        _ => Value::Str(arb_string(rng, 24)),
    }
}

struct ArbRequest;

impl proptest::strategy::Strategy for ArbRequest {
    type Value = Request;
    fn generate(&self, rng: &mut StdRng) -> Request {
        match rng.random_range(0u8..5) {
            0 => Request::Query {
                sql: arb_string(rng, 48),
            },
            1 => Request::Prepare {
                name: arb_string(rng, 16),
                sql: arb_string(rng, 48),
            },
            2 => Request::ExecutePrepared {
                name: arb_string(rng, 16),
                params: (0..rng.random_range(0usize..6))
                    .map(|_| arb_value(rng))
                    .collect(),
            },
            3 => Request::SetOption {
                key: arb_string(rng, 16),
                value: arb_string(rng, 16),
            },
            _ => Request::Close,
        }
    }
}

struct ArbResponse;

impl proptest::strategy::Strategy for ArbResponse {
    type Value = Response;
    fn generate(&self, rng: &mut StdRng) -> Response {
        const TYPES: &[DataType] = &[
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
        ];
        match rng.random_range(0u8..7) {
            0 => Response::Hello {
                version: rng.random_range(0u16..u16::MAX),
                banner: arb_string(rng, 32),
            },
            1 => Response::Schema {
                fields: (0..rng.random_range(0usize..5))
                    .map(|_| WireField {
                        name: arb_string(rng, 16),
                        data_type: TYPES[rng.random_range(0..TYPES.len())],
                        nullable: rng.random_range(0u8..2) == 1,
                    })
                    .collect(),
            },
            2 => {
                let cols = rng.random_range(0usize..4);
                Response::RowBatch {
                    rows: (0..rng.random_range(0usize..8))
                        .map(|_| (0..cols).map(|_| arb_value(rng)).collect())
                        .collect(),
                }
            }
            3 => Response::Done {
                visibility: match rng.random_range(0u8..4) {
                    0 => None,
                    1 => Some(Visibility::Closed),
                    2 => Some(Visibility::SemiOpen),
                    _ => Some(Visibility::Open),
                },
                notes: (0..rng.random_range(0usize..3))
                    .map(|_| arb_string(rng, 24))
                    .collect(),
            },
            4 => Response::Error(WireError {
                code: rng.random_range(0u16..u16::MAX),
                statement_index: if rng.random_range(0u8..2) == 0 {
                    None
                } else {
                    Some(rng.random_range(0u32..u32::MAX - 1))
                },
                statement_text: arb_string(rng, 32),
                message: arb_string(rng, 32),
            }),
            5 => Response::PrepareOk {
                name: arb_string(rng, 16),
                param_count: rng.random_range(0u32..u32::MAX),
            },
            _ => Response::OptionOk {
                key: arb_string(rng, 16),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request survives an encode → decode round trip.
    #[test]
    fn request_roundtrip(req in ArbRequest) {
        let (ty, payload) = req.encode();
        let back = Request::decode(ty, &payload).unwrap();
        // Debug shows exact float bit patterns (NaN payloads, -0.0),
        // so this is bit-level equality.
        prop_assert_eq!(format!("{req:?}"), format!("{back:?}"));
    }

    /// Every response survives an encode → decode round trip.
    #[test]
    fn response_roundtrip(resp in ArbResponse) {
        let (ty, payload) = resp.encode();
        let back = Response::decode(ty, &payload).unwrap();
        prop_assert_eq!(format!("{resp:?}"), format!("{back:?}"));
    }

    /// Decoding is total: arbitrary bytes under every type tag produce
    /// `Ok` or `Err(DecodeError)`, never a panic.
    #[test]
    fn decode_arbitrary_bytes_never_panics(
        ty in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let _ = Request::decode(ty, &payload);
        let _ = Response::decode(ty, &payload);
    }

    /// Truncating a valid payload anywhere fails soft (no panic), and
    /// appending trailing garbage is rejected rather than ignored.
    #[test]
    fn truncated_and_padded_payloads_fail_soft(req in ArbRequest, cut in 0usize..64) {
        let (ty, payload) = req.encode();
        if !payload.is_empty() {
            let cut = cut % payload.len();
            let _ = Request::decode(ty, &payload[..cut]);
        }
        let mut padded = payload.clone();
        padded.extend_from_slice(b"!!");
        prop_assert!(Request::decode(ty, &padded).is_err());
    }
}

// ---------------------------------------------------------------------
// Raw-socket robustness against a live server.
// ---------------------------------------------------------------------

fn start_server() -> ServerHandle {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute("CREATE TABLE p (x INT); INSERT INTO p VALUES (1), (2), (3);")
        .unwrap();
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let (handle, _join) = server.spawn();
    handle
}

/// A raw frame-level connection: reads the Hello, then lets tests send
/// arbitrary bytes.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Raw {
    fn connect(handle: &ServerHandle) -> Raw {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut raw = Raw {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        };
        match raw.read().expect("hello frame") {
            Response::Hello { .. } => raw,
            other => panic!("expected Hello, got {other:?}"),
        }
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
        self.writer.flush().unwrap();
    }

    fn send(&mut self, req: &Request) {
        let (ty, payload) = req.encode();
        write_frame(&mut self.writer, ty, &payload).unwrap();
        self.writer.flush().unwrap();
    }

    fn read(&mut self) -> Option<Response> {
        let (ty, payload) = read_frame(&mut self.reader).ok()??;
        Some(Response::decode(ty, &payload).unwrap())
    }

    fn read_error(&mut self) -> WireError {
        loop {
            match self.read().expect("response before close") {
                Response::Error(e) => return e,
                _ => continue,
            }
        }
    }

    /// Drain one full result set (Schema → RowBatch* → Done).
    fn read_result(&mut self) -> usize {
        let mut rows = 0;
        loop {
            match self.read().expect("response before close") {
                Response::Done { .. } => return rows,
                Response::RowBatch { rows: r } => rows += r.len(),
                Response::Schema { .. } => {}
                Response::Error(e) => panic!("unexpected error: {e}"),
                other => panic!("unexpected frame: {other:?}"),
            }
        }
    }
}

/// A client that disconnects mid-frame must not wedge the server: new
/// connections keep working and no permit leaks.
#[test]
fn truncated_frame_then_disconnect_leaves_server_healthy() {
    let handle = start_server();
    {
        let mut raw = Raw::connect(&handle);
        // Header promising 100 bytes, then only 3 — then hang up.
        let mut bytes = vec![0x01];
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(b"SEL");
        raw.send_bytes(&bytes);
    } // dropped: TCP FIN mid-frame

    let mut client = Client::connect(handle.addr()).unwrap();
    let got = client.query("SELECT COUNT(*) FROM p").unwrap();
    assert_eq!(got.table.value(0, 0), Value::Int(3));
    client.close().unwrap();
    assert_eq!(handle.permits_in_use(), 0);
    handle.shutdown();
}

/// A header claiming a payload beyond `MAX_FRAME` gets one
/// `FRAME_TOO_LARGE` error and a close — the server never tries to
/// allocate or read the claimed payload.
#[test]
fn oversized_frame_is_rejected_with_code_101() {
    let handle = start_server();
    let mut raw = Raw::connect(&handle);
    let mut bytes = vec![0x01];
    bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    raw.send_bytes(&bytes);
    let err = raw.read_error();
    assert_eq!(err.code, codes::FRAME_TOO_LARGE);
    // The server closes after the error frame.
    assert!(raw.read().is_none(), "connection must close");

    // And keeps serving others.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(
        client
            .query("SELECT COUNT(*) FROM p")
            .unwrap()
            .table
            .value(0, 0),
        Value::Int(3)
    );
    client.close().unwrap();
    assert_eq!(handle.permits_in_use(), 0);
    handle.shutdown();
}

/// Malformed payloads — invalid UTF-8 SQL, an unknown frame type, a
/// truncated-but-complete-frame body — each get a `PROTOCOL` error and
/// the connection stays usable.
#[test]
fn malformed_payloads_get_protocol_errors_and_connection_survives() {
    let handle = start_server();
    let mut raw = Raw::connect(&handle);

    // Query frame whose string length prefix overruns the payload.
    let mut bytes = vec![0x01];
    bytes.extend_from_slice(&6u32.to_le_bytes());
    bytes.extend_from_slice(&999u32.to_le_bytes());
    bytes.extend_from_slice(b"ab");
    raw.send_bytes(&bytes);
    assert_eq!(raw.read_error().code, codes::PROTOCOL);

    // Query frame with invalid UTF-8 SQL.
    let sql = [0xFFu8, 0xFE, 0xFD];
    let mut payload = (sql.len() as u32).to_le_bytes().to_vec();
    payload.extend_from_slice(&sql);
    let mut bytes = vec![0x01];
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&payload);
    raw.send_bytes(&bytes);
    assert_eq!(raw.read_error().code, codes::PROTOCOL);

    // Unknown frame type (a response tag sent client → server).
    let mut bytes = vec![0x83];
    bytes.extend_from_slice(&0u32.to_le_bytes());
    raw.send_bytes(&bytes);
    assert_eq!(raw.read_error().code, codes::PROTOCOL);

    // After all that abuse, a well-formed query still works.
    raw.send(&Request::Query {
        sql: "SELECT x FROM p ORDER BY x".into(),
    });
    assert_eq!(raw.read_result(), 3);

    raw.send(&Request::Close);
    assert_eq!(handle.permits_in_use(), 0);
    handle.shutdown();
}

/// Out-of-order protocol traffic — executing a name that was never
/// prepared — is a typed error, not a close, and no permit leaks even
/// though admission wraps execution.
#[test]
fn out_of_order_execute_is_typed_error_not_close() {
    let handle = start_server();
    let mut raw = Raw::connect(&handle);
    raw.send(&Request::ExecutePrepared {
        name: "ghost".into(),
        params: vec![Value::Int(1)],
    });
    let err = raw.read_error();
    assert_eq!(err.code, codes::UNKNOWN_PREPARED);
    assert!(err.message.contains("ghost"), "message: {}", err.message);

    raw.send(&Request::Query {
        sql: "SELECT COUNT(*) FROM p".into(),
    });
    assert_eq!(raw.read_result(), 1);
    raw.send(&Request::Close);
    assert_eq!(handle.permits_in_use(), 0);
    handle.shutdown();
}

/// Results larger than one batch stream in `ROWS_PER_BATCH` chunks and
/// reassemble losslessly.
#[test]
fn large_results_stream_in_batches() {
    let engine = Arc::new(MosaicEngine::new());
    let mut sql = String::from("CREATE TABLE big (x INT);\n");
    let values: Vec<String> = (0..ROWS_PER_BATCH as i64 * 2 + 7)
        .map(|i| format!("({i})"))
        .collect();
    for chunk in values.chunks(2048) {
        sql.push_str("INSERT INTO big VALUES ");
        sql.push_str(&chunk.join(", "));
        sql.push_str(";\n");
    }
    engine.session().execute(&sql).unwrap();
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let (handle, _join) = server.spawn();

    let mut client = Client::connect(handle.addr()).unwrap();
    let got = client.query("SELECT x FROM big ORDER BY x").unwrap();
    assert_eq!(got.table.num_rows(), ROWS_PER_BATCH * 2 + 7);
    for r in 0..got.table.num_rows() {
        assert_eq!(got.table.value(r, 0), Value::Int(r as i64));
    }
    client.close().unwrap();
    handle.shutdown();
}

/// A server over one registered table `wide (id INT, s TEXT)` holding
/// `cells`, one row each.
fn start_wide_server(cells: Vec<String>) -> ServerHandle {
    let engine = Arc::new(MosaicEngine::new());
    let mut b = TableBuilder::new(Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("s", DataType::Str),
    ]));
    for (i, s) in cells.into_iter().enumerate() {
        b.push_row(vec![Value::Int(i as i64), Value::Str(s)])
            .unwrap();
    }
    engine.register_table("wide", b.finish()).unwrap();
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let (handle, _join) = server.spawn();
    handle
}

/// `ROWS_PER_BATCH` rows of 5 KB text are over 16 MiB together: the
/// server closes a batch before the row that would push it past
/// `MAX_FRAME`, and the result arrives whole and bit-identical.
#[test]
fn wide_rows_split_into_batches_under_max_frame() {
    let cell = |i: usize| format!("{i:05}").repeat(1_000);
    let handle = start_wide_server((0..ROWS_PER_BATCH).map(cell).collect());
    let sql = "SELECT id, s FROM wide ORDER BY id";

    let mut raw = Raw::connect(&handle);
    raw.send(&Request::Query { sql: sql.into() });
    let mut batches = 0;
    let mut next = 0;
    loop {
        match raw.read().expect("response before close") {
            Response::Schema { .. } => {}
            Response::RowBatch { rows } => {
                batches += 1;
                for row in rows {
                    assert_eq!(row, [Value::Int(next as i64), Value::Str(cell(next))]);
                    next += 1;
                }
            }
            Response::Done { .. } => break,
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert_eq!(next, ROWS_PER_BATCH);
    assert!(batches >= 2, "{batches} batch(es)");
    raw.send(&Request::Close);

    let mut client = Client::connect(handle.addr()).unwrap();
    let got = client.query(sql).unwrap();
    assert_eq!(got.table.num_rows(), ROWS_PER_BATCH);
    assert_eq!(got.table.value(4095, 1), Value::Str(cell(4095)));
    client.close().unwrap();
    assert_eq!(handle.permits_in_use(), 0);
    handle.shutdown();
}

/// A row that alone exceeds `MAX_FRAME` cannot be sent in any frame: the
/// result ends with a `FRAME_TOO_LARGE` error and the same connection
/// answers the next query.
#[test]
fn row_over_max_frame_is_typed_error_and_connection_survives() {
    let handle = start_wide_server(vec!["x".repeat(MAX_FRAME as usize)]);
    let mut client = Client::connect(handle.addr()).unwrap();
    let err = client.query("SELECT s FROM wide").unwrap_err();
    let wire = err.as_server().expect("server-side error expected");
    assert_eq!(wire.code, codes::FRAME_TOO_LARGE, "{wire}");

    let got = client.query("SELECT COUNT(*) FROM wide").unwrap();
    assert_eq!(got.table.value(0, 0), Value::Int(1));
    client.close().unwrap();
    assert_eq!(handle.permits_in_use(), 0);
    handle.shutdown();
}
