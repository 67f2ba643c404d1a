//! # mosaic-serve
//!
//! The network frontend of the Mosaic engine: a multi-client TCP
//! server speaking a small length-prefixed binary protocol, with one
//! engine [`Session`](mosaic_core::Session) per connection,
//! server-side **named prepared statements**, per-connection options
//! (`SetOption`: visibility, seed, thread cap, optimizer, result
//! cache), and **admission control** — a
//! worker-permit pool that extends the engine's one-thread-budget
//! discipline across the network boundary, so any number of clients
//! share one bounded set of engine worker threads.
//!
//! The pieces:
//!
//! * [`protocol`] — the frame codec ([`Request`] / [`Response`]),
//!   stable numeric [error codes](protocol::codes), and the
//!   [`error_code`] mapping from
//!   [`MosaicError`](mosaic_core::MosaicError) variants,
//! * [`admission`] — the [`PermitPool`] bounding total worker threads,
//! * [`server`] — the bounded acceptor and thread-per-connection
//!   [`Server`],
//! * [`client`] — a blocking [`Client`] used by the integration tests
//!   and the benchmark's wire workloads.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use mosaic_core::MosaicEngine;
//! use mosaic_serve::{Client, ServeConfig, Server};
//!
//! let engine = Arc::new(MosaicEngine::new());
//! engine.session().execute(
//!     "CREATE TABLE t (x INT); INSERT INTO t VALUES (1), (2), (3);",
//! ).unwrap();
//! let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let (handle, _join) = server.spawn();
//!
//! let mut client = Client::connect(addr).unwrap();
//! let result = client.query("SELECT COUNT(*) FROM t WHERE x >= 2").unwrap();
//! assert_eq!(result.table.value(0, 0), 2i64.into());
//! // Named prepared statements live server-side, per connection.
//! client.prepare("above", "SELECT COUNT(*) FROM t WHERE x >= ?").unwrap();
//! let r = client.execute_prepared("above", &[3i64.into()]).unwrap();
//! assert_eq!(r.table.value(0, 0), 1i64.into());
//! client.close().unwrap();
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;

pub use admission::{Permit, PermitPool};
pub use client::{Client, ClientError, RemoteResult};
pub use protocol::{
    error_code, DecodeError, FrameError, Request, Response, WireError, WireField, MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server, ServerHandle};
