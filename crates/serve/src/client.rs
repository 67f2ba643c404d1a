//! A small blocking client for the Mosaic wire protocol.
//!
//! One [`Client`] owns one connection (and therefore one server-side
//! session). The protocol is strictly request/response per connection,
//! so the client API is synchronous: send a request, read frames until
//! the terminal `Done` / `PrepareOk` / `OptionOk` / `Error`. Result
//! tables are rebuilt from the `Schema` + `RowBatch` stream — values
//! travel as tagged scalars with floats as raw bit patterns, so the
//! rebuilt [`Table`] is **bit-identical** to the server's in-process
//! result.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use mosaic_sql::Visibility;
use mosaic_storage::{Field, Schema, Table, TableBuilder, Value};

use crate::protocol::{read_frame, write_frame, FrameError, Request, Response, WireError};

/// A typed client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server broke the protocol (unexpected or malformed frame).
    Protocol(String),
    /// The server answered with an error frame; the stable code,
    /// failing-statement position, and message are preserved.
    Server(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::TooLarge(n) => {
                ClientError::Protocol(format!("server sent an oversized frame ({n} bytes)"))
            }
        }
    }
}

impl ClientError {
    /// The server-side wire error, if that is what this is.
    pub fn as_server(&self) -> Option<&WireError> {
        match self {
            ClientError::Server(e) => Some(e),
            _ => None,
        }
    }
}

/// A query result received over the wire.
#[derive(Debug, Clone)]
pub struct RemoteResult {
    /// Result rows, rebuilt bit-identical to the in-process table.
    pub table: Table,
    /// Visibility that produced the result (population queries).
    pub visibility: Option<Visibility>,
    /// Human-readable execution notes.
    pub notes: Vec<String>,
}

/// A blocking connection to a Mosaic server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    banner: String,
}

impl Client {
    /// Connect and read the server's `Hello` frame.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            banner: String::new(),
        };
        match client.read_response()? {
            Response::Hello { banner, .. } => {
                client.banner = banner;
                Ok(client)
            }
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected Hello, got {other:?}"
            ))),
        }
    }

    /// The server's banner text.
    pub fn banner(&self) -> &str {
        &self.banner
    }

    /// Execute a `;`-separated SQL script; returns the last SELECT's
    /// result (or an empty result).
    pub fn query(&mut self, sql: &str) -> Result<RemoteResult, ClientError> {
        self.send(&Request::Query {
            sql: sql.to_string(),
        })?;
        self.read_result()
    }

    /// Create (or replace) a server-side named prepared statement;
    /// returns its `?`-parameter count.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<u32, ClientError> {
        self.send(&Request::Prepare {
            name: name.to_string(),
            sql: sql.to_string(),
        })?;
        match self.read_response()? {
            Response::PrepareOk { param_count, .. } => Ok(param_count),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected PrepareOk, got {other:?}"
            ))),
        }
    }

    /// Execute a named prepared statement with positional parameters.
    pub fn execute_prepared(
        &mut self,
        name: &str,
        params: &[Value],
    ) -> Result<RemoteResult, ClientError> {
        self.send(&Request::ExecutePrepared {
            name: name.to_string(),
            params: params.to_vec(),
        })?;
        self.read_result()
    }

    /// Set one of the connection's session knobs (any key of
    /// [`mosaic_core::KEYS`]), or clear the engine's caches with
    /// `result_cache=clear`.
    pub fn set_option(&mut self, key: &str, value: &str) -> Result<(), ClientError> {
        self.send(&Request::SetOption {
            key: key.to_string(),
            value: value.to_string(),
        })?;
        match self.read_response()? {
            Response::OptionOk { .. } => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected OptionOk, got {other:?}"
            ))),
        }
    }

    /// Fetch the engine's result/plan cache statistics as a
    /// `(stat TEXT, value INT)` table (see
    /// [`CacheStats`](mosaic_core::CacheStats) for the row meanings).
    pub fn cache_stats(&mut self) -> Result<RemoteResult, ClientError> {
        self.send(&Request::CacheStats)?;
        self.read_result()
    }

    /// Close the connection cleanly.
    pub fn close(mut self) -> Result<(), ClientError> {
        self.send(&Request::Close)?;
        Ok(())
    }

    /// Send one request frame.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let (ty, payload) = req.encode();
        write_frame(&mut self.writer, ty, &payload)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Read one response frame (protocol-level; most callers want
    /// [`Client::query`] and friends).
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let (ty, payload) = read_frame(&mut self.reader)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        Response::decode(ty, &payload)
            .map_err(|e| ClientError::Protocol(format!("undecodable server frame: {e}")))
    }

    /// Read a `Schema` → `RowBatch`* → `Done` stream into a
    /// [`RemoteResult`].
    fn read_result(&mut self) -> Result<RemoteResult, ClientError> {
        let fields = match self.read_response()? {
            Response::Schema { fields } => fields,
            Response::Error(e) => return Err(ClientError::Server(e)),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Schema, got {other:?}"
                )))
            }
        };
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
        let mut builder = TableBuilder::new(schema);
        loop {
            match self.read_response()? {
                Response::RowBatch { rows } => {
                    for row in rows {
                        if row.len() != fields.len() {
                            return Err(ClientError::Protocol(format!(
                                "row with {} values in a {}-column result",
                                row.len(),
                                fields.len()
                            )));
                        }
                        builder.push_row(row).map_err(|e| {
                            ClientError::Protocol(format!("row does not fit schema: {e}"))
                        })?;
                    }
                }
                Response::Done { visibility, notes } => {
                    return Ok(RemoteResult {
                        table: builder.finish(),
                        visibility,
                        notes,
                    });
                }
                Response::Error(e) => return Err(ClientError::Server(e)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected RowBatch/Done, got {other:?}"
                    )))
                }
            }
        }
    }
}
