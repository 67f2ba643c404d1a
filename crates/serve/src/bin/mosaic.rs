//! `mosaic` — an interactive SQL shell for the Mosaic open-world database.
//!
//! ```text
//! $ cargo run --release -p mosaic-serve --bin mosaic
//! mosaic> CREATE GLOBAL POPULATION People (city TEXT);
//! ok
//! mosaic> SELECT SEMI-OPEN city, COUNT(*) FROM People GROUP BY city;
//! ...
//! ```
//!
//! Statements may span lines; a chunk executes at each line-ending `;`
//! through the engine's one script loop ([`Session::execute_script`]),
//! the path of in-process sessions and the wire's `Query` frame too, so
//! a repeated single-SELECT chunk runs from the shared plan cache
//! without being parsed again. A failing statement stops the rest of
//! the chunk; the statements before it keep their effects. The error
//! line reads `error: …` when the chunk is that one statement and
//! otherwise also names the failing statement (1-based index plus its
//! text).
//!
//! Meta-commands (leading `.` or `\`):
//! `.help`, `.quit`, `.notes on|off` (execution diagnostics),
//! `.set <key> <value>` (one of the session's knobs — `visibility`,
//! `seed`, `threads`, `partitions`, `optimizer`, `result_cache` — parsed
//! exactly like the `MOSAIC_*` variables and the wire's `SetOption`),
//! `.cache stats|clear` (the engine-wide counters of the result, plan
//! and derived-artefact caches; engine-wide clear),
//! `.load <csv> <table>` (ingest a CSV file as an auxiliary table),
//! `.serve <addr>` (expose this shell's engine over TCP in the
//! background — the wire protocol of `mosaic-serve`),
//! `\prepare <name> <select>` (parse/bind/plan once, keep under `name`),
//! `\exec <name> [v1, v2, …]` (run a prepared statement with `?` values),
//! `\explain <select>` (shorthand for the `EXPLAIN` statement).
//!
//! Flags: `--batch` (no prompts), `--threads N` and `--partitions N`
//! (the session's `threads` and `partitions` knobs, as `.set` takes
//! them; they override `MOSAIC_PARALLELISM` and `MOSAIC_AGG_PARTITIONS`
//! and never change results), `--result-cache <MB>` (capacity of the
//! engine's epoch-invalidated result cache, 64 by default; `0` disables
//! it for every session, wire connections included) or
//! `--result-cache off` (the session's `result_cache` knob), `--serve
//! <addr>` (skip the shell entirely and run the TCP server in the
//! foreground; `--threads` then sets the shared worker budget every
//! connection draws from).

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::Arc;

use mosaic_core::{
    eval_scalar, EngineOptions, MosaicEngine, Prepared, QueryResult, ScriptError, Session, Value,
    KEYS,
};
use mosaic_serve::{ServeConfig, Server, ServerHandle};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The value after `flag` ("" when it is the last argument).
    let flag = |name: &str| {
        let i = args.iter().position(|a| a == name)?;
        Some(args.get(i + 1).map_or("", String::as_str))
    };
    let mut engine_options = EngineOptions::default();
    // Knob flags, applied to the session through `Session::set`; the
    // last field extends a rejected value's message.
    let mut knobs = vec![
        ("--threads", "threads", ""),
        ("--partitions", "partitions", ""),
    ];
    if let Some(v) = flag("--result-cache") {
        match v.parse::<usize>() {
            Ok(mb) => engine_options = engine_options.with_result_cache(mb),
            Err(_) => knobs.push(("--result-cache", "result_cache", ", or a capacity in MB")),
        }
    }
    let engine = Arc::new(MosaicEngine::with_options(engine_options));
    let mut session = engine.session();
    for (name, key, or) in knobs {
        if let Some(Err(e)) = flag(name).map(|v| session.set(key, v)) {
            eprintln!("error: {name}: {e}{or}");
            std::process::exit(2);
        }
    }
    let interactive = !args.iter().any(|a| a == "--batch");
    if let Some(i) = args.iter().position(|a| a == "--serve") {
        // Server mode: no shell, just the TCP frontend on this engine.
        // The `--threads` cap becomes the shared worker budget that
        // admission control divides across all connections.
        let addr = match args.get(i + 1) {
            Some(a) if !a.starts_with("--") => a.clone(),
            _ => {
                eprintln!("error: --serve requires an address (e.g. --serve 127.0.0.1:7878)");
                std::process::exit(2);
            }
        };
        let config = ServeConfig::default().with_worker_budget(session.knobs().threads);
        let server = match Server::bind(Arc::clone(&engine), addr.as_str(), config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot bind {addr}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "mosaic-serve listening on {} (worker budget {})",
            server.local_addr(),
            server.handle().worker_budget()
        );
        server.serve();
        return;
    }
    let mut shell = Shell {
        session,
        prepared: HashMap::new(),
        show_notes: true,
        servers: Vec::new(),
    };
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    if interactive {
        eprintln!("Mosaic — a sample-based database for open-world query processing");
        eprintln!("type .help for meta-commands; statements end with ';'");
    }
    loop {
        if interactive && buffer.is_empty() {
            eprint!("mosaic> ");
        } else if interactive {
            eprint!("   ...> ");
        }
        std::io::stderr().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && (trimmed.starts_with('.') || trimmed.starts_with('\\')) {
            if !shell.meta_command(trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let sql = std::mem::take(&mut buffer);
        if sql.trim().is_empty() {
            continue;
        }
        shell.run_script(&sql);
    }
}

struct Shell {
    session: Session,
    prepared: HashMap<String, Prepared>,
    show_notes: bool,
    /// Background servers started with `.serve` (kept so their metrics
    /// stay reachable; connections drain when the process exits).
    servers: Vec<ServerHandle>,
}

impl Shell {
    /// Run a `;`-separated chunk through the engine's script loop
    /// ([`Session::execute_script`]), which stops at the first failure
    /// (later statements may depend on the failed one) and reports
    /// which statement failed.
    fn run_script(&mut self, sql: &str) {
        match self.session.execute_script(sql) {
            Ok(r) => self.print_result(&r),
            Err(e) => eprintln!("{}", error_message(sql, &e)),
        }
    }

    fn print_result(&self, result: &QueryResult) {
        if result.table.num_columns() > 0 {
            print!("{}", result.table);
        } else {
            println!("ok");
        }
        if self.show_notes {
            for note in &result.notes {
                eprintln!("-- {note}");
            }
        }
    }

    /// Handle one meta-command line; returns `false` to quit the shell.
    fn meta_command(&mut self, line: &str) -> bool {
        let body = &line[1..];
        let (cmd, rest) = match body.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (body, ""),
        };
        match cmd {
            "quit" | "exit" => return false,
            "help" => {
                println!(
                    ".help                      this message\n\
                     .quit                      exit\n\
                     .notes on|off              toggle execution diagnostics\n\
                     .set <key> <value>         set a session knob (.set alone lists the keys)\n\
                     .cache stats|clear         engine caches: engine-wide stats, engine clear\n\
                     .tables                    list registered relations with their kinds\n\
                     .schema <name>             show a relation's columns with types\n\
                     .load <csv> <table>        ingest a CSV file as an auxiliary table\n\
                     .serve <addr>              expose this engine over TCP in the background\n\
                                                (or run `mosaic --serve <addr>` as a server)\n\
                     \\prepare <name> <select>   parse+bind+plan once, keep under <name>\n\
                     \\exec <name> [v1, v2, …]   run a prepared statement with ? values\n\
                     \\explain <select>          shorthand for EXPLAIN <select>\n\
                     SQL: CREATE TABLE / [GLOBAL] POPULATION / SAMPLE / METADATA,\n\
                          INSERT, DROP, EXPLAIN,\n\
                          SELECT [CLOSED|SEMI-OPEN|OPEN] ... [FROM a [AS x] JOIN b ON x.k = b.k]\n\
                          (meta-commands accept either a '.' or a '\\' prefix)"
                );
            }
            "notes" => {
                self.show_notes = rest != "off";
                println!("notes {}", if self.show_notes { "on" } else { "off" });
            }
            "tables" => {
                let cat = self.session.engine().catalog();
                let rels = cat.relations();
                if rels.is_empty() {
                    println!("(no relations registered)");
                }
                for (name, kind) in rels {
                    println!("{name:<24} {kind}");
                }
            }
            "schema" => {
                if rest.is_empty() {
                    eprintln!("usage: .schema <table|population|sample>");
                    return true;
                }
                self.show_schema(rest);
            }
            "set" => {
                // One knob of this session. Statements prepared earlier
                // keep the plans (visibility, optimizer) they were bound
                // with but run under the new execution settings.
                match rest.split_once(char::is_whitespace) {
                    Some((key, value)) => match self.session.set(key, value) {
                        Ok(()) => println!("{} {}", key.to_ascii_lowercase(), value.trim()),
                        Err(e) => eprintln!("error: {e}"),
                    },
                    None => {
                        eprintln!("usage: .set <key> <value>");
                        for key in KEYS {
                            eprintln!("  {:<14} {}", key.name, key.grammar);
                        }
                    }
                }
            }
            "cache" => {
                // The shared result, plan and derived-artefact caches:
                // engine-wide statistics and an engine-wide clear. Epoch invalidation keeps
                // entries correct automatically — `clear` only releases
                // memory.
                match rest {
                    "clear" => {
                        self.session.engine().clear_caches();
                        println!("caches cleared");
                    }
                    "stats" | "" => {
                        let s = self.session.engine().cache_stats();
                        println!(
                            "result cache: {} entr{} / {} byte(s) of {} capacity",
                            s.entries,
                            if s.entries == 1 { "y" } else { "ies" },
                            s.bytes,
                            s.capacity_bytes
                        );
                        println!(
                            "  hits {} / misses {} / insertions {} / evictions {} / \
                             invalidations {}",
                            s.hits, s.misses, s.insertions, s.evictions, s.invalidations
                        );
                        println!(
                            "plan cache: hits {} / misses {}",
                            s.plan_hits, s.plan_misses
                        );
                        println!(
                            "derived cache (OPEN models and replicates): {} entr{} / {} \
                             byte(s) of {} capacity",
                            s.derived_entries,
                            if s.derived_entries == 1 { "y" } else { "ies" },
                            s.derived_bytes,
                            s.derived_capacity_bytes
                        );
                        println!(
                            "  hits {} / misses {} / evictions {} / invalidations {}",
                            s.derived_hits,
                            s.derived_misses,
                            s.derived_evictions,
                            s.derived_invalidations
                        );
                    }
                    _ => eprintln!(
                        "usage: .cache stats|clear (per session: .set result_cache on|off)"
                    ),
                }
            }
            "load" => {
                let mut parts = rest.split_whitespace();
                match (parts.next(), parts.next()) {
                    (Some(path), Some(table)) => self.load_csv(path, table),
                    _ => eprintln!("usage: .load <csv-path> <table-name>"),
                }
            }
            "serve" => {
                // Share *this* shell's engine over TCP: remote sessions
                // and the shell see one catalog. The session's thread
                // cap becomes the shared worker budget.
                if rest.is_empty() {
                    eprintln!("usage: .serve <addr>  (e.g. .serve 127.0.0.1:7878)");
                    return true;
                }
                let config =
                    ServeConfig::default().with_worker_budget(self.session.knobs().threads);
                match Server::bind(Arc::clone(self.session.engine()), rest, config) {
                    Ok(server) => {
                        let (handle, _join) = server.spawn();
                        println!(
                            "serving on {} (worker budget {})",
                            handle.addr(),
                            handle.worker_budget()
                        );
                        self.servers.push(handle);
                    }
                    Err(e) => eprintln!("error: cannot bind {rest}: {e}"),
                }
            }
            "prepare" => {
                let (name, stmt_sql) = match rest.split_once(char::is_whitespace) {
                    Some((n, s)) if !s.trim().is_empty() => (n, s.trim()),
                    _ => {
                        eprintln!("usage: \\prepare <name> <select-statement>");
                        return true;
                    }
                };
                match self.session.prepare(stmt_sql.trim_end_matches(';')) {
                    Ok(p) => {
                        println!(
                            "prepared {name}: {} parameter(s) — run with \\exec {name} [values]",
                            p.param_count()
                        );
                        self.prepared.insert(name.to_string(), p);
                    }
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            "exec" => {
                let (name, args) = match rest.split_once(char::is_whitespace) {
                    Some((n, a)) => (n, a.trim()),
                    None => (rest, ""),
                };
                if name.is_empty() {
                    eprintln!("usage: \\exec <name> [v1, v2, …]");
                    return true;
                }
                let Some(p) = self.prepared.get(name) else {
                    eprintln!("error: no prepared statement named {name} (see \\prepare)");
                    return true;
                };
                match parse_params(args) {
                    Ok(params) => match self.session.execute_prepared(p, &params) {
                        Ok(r) => self.print_result(&r),
                        Err(e) => eprintln!("error: {e}"),
                    },
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            "explain" => {
                if rest.is_empty() {
                    eprintln!("usage: \\explain <select-statement>");
                    return true;
                }
                self.run_script(&format!("EXPLAIN {}", rest.trim_end_matches(';')));
            }
            _ => eprintln!("unknown meta-command (try .help)"),
        }
        true
    }

    /// Print one relation's columns with their types (`.schema <name>`).
    fn show_schema(&self, name: &str) {
        let cat = self.session.engine().catalog();
        let print_fields = |schema: &mosaic_core::Schema| {
            for f in schema.fields() {
                println!(
                    "  {:<20} {}{}",
                    f.name,
                    f.data_type,
                    if f.nullable { "" } else { " NOT NULL" }
                );
            }
        };
        if let Some(t) = cat.aux(name) {
            println!("table {name} ({} rows)", t.num_rows());
            print_fields(t.schema());
        } else if let Some(s) = cat.sample(name) {
            println!(
                "sample {} over population {} ({} rows)",
                s.name,
                s.population,
                s.len()
            );
            print_fields(s.data.schema());
            println!("  {:<20} FLOAT (engine-managed weight)", "weight");
        } else if let Some(p) = cat.population(name) {
            println!(
                "population {}{}",
                p.name,
                if p.global { " (global)" } else { "" }
            );
            print_fields(&p.schema);
        } else {
            let names = cat.relation_names();
            if names.is_empty() {
                eprintln!("error: unknown relation {name} (the catalog has no relations yet)");
            } else {
                eprintln!(
                    "error: unknown relation {name}; available: {}",
                    names.join(", ")
                );
            }
        }
    }

    fn load_csv(&mut self, path: &str, table: &str) {
        match mosaic_storage::csv::read_csv_path(path) {
            Ok(t) => {
                let rows = t.num_rows();
                // Register directly through the engine's bulk path (no
                // SQL INSERT round-trip per row).
                match self.session.engine().register_table(table, t) {
                    Ok(()) => println!("loaded {rows} rows into {table}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

/// Parse a comma-separated list of literal expressions into parameter
/// values (e.g. `120, 'WN, DL', 1.5`). Splits at *top-level* comma
/// tokens (lexing first), so string values containing commas work.
fn parse_params(args: &str) -> Result<Vec<Value>, String> {
    if args.trim().is_empty() {
        return Ok(Vec::new());
    }
    use mosaic_sql::TokenKind;
    let tokens = mosaic_sql::tokenize(args).map_err(|e| e.to_string())?;
    let mut chunks: Vec<&str> = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for t in &tokens {
        match t.kind {
            TokenKind::LParen | TokenKind::LBracket => depth += 1,
            TokenKind::RParen | TokenKind::RBracket => depth = depth.saturating_sub(1),
            TokenKind::Comma if depth == 0 => {
                chunks.push(&args[start..t.offset]);
                start = t.offset + 1;
            }
            _ => {}
        }
    }
    chunks.push(&args[start..]);
    chunks
        .into_iter()
        .map(|chunk| {
            let expr = mosaic_sql::parse_expr(chunk.trim()).map_err(|e| e.to_string())?;
            eval_scalar(&expr).map_err(|e| e.to_string())
        })
        .collect()
}

/// The shell's line for a failed chunk: `error: …` when the chunk is
/// the one statement that failed (or did not parse), otherwise the
/// failing statement's 1-based index and text as well.
fn error_message(chunk: &str, e: &ScriptError) -> String {
    let whole = chunk.trim_end_matches(|c: char| c == ';' || c.is_whitespace());
    match &e.statement {
        Some((i, text)) if *i > 0 || whole.trim_start() != text => {
            let (n, text) = (i + 1, snippet(text));
            format!("error in statement {n} ({text}): {}", e.error)
        }
        _ => format!("error: {}", e.error),
    }
}

/// Trim a statement's text to one error-message-sized line.
fn snippet(sql: &str) -> String {
    let flat = sql.split_whitespace().collect::<Vec<_>>().join(" ");
    if flat.chars().count() > 60 {
        let head: String = flat.chars().take(59).collect();
        format!("{head}…")
    } else {
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell() -> Shell {
        Shell {
            session: Arc::new(MosaicEngine::new()).session(),
            prepared: HashMap::new(),
            show_notes: false,
            servers: Vec::new(),
        }
    }

    fn plan_counts(shell: &Shell) -> (u64, u64) {
        let s = shell.session.engine().cache_stats();
        (s.plan_hits, s.plan_misses)
    }

    /// Shell chunks take the engine's script loop, so a repeated
    /// single-SELECT chunk is a plan-cache hit.
    #[test]
    fn repeated_select_chunks_hit_the_plan_cache() {
        let mut sh = shell();
        sh.run_script("CREATE TABLE t (k INT);\nINSERT INTO t VALUES (1), (2);\n");
        let (hits, misses) = plan_counts(&sh);
        sh.run_script("SELECT k FROM t;\n");
        sh.run_script("SELECT k FROM t;\n");
        assert_eq!(plan_counts(&sh), (hits + 1, misses + 1));
    }

    /// A failing statement keeps the earlier statements' effects, skips
    /// the later ones, and is named unless it is the whole chunk.
    #[test]
    fn a_failing_statement_stops_the_chunk() {
        let mut sh = shell();
        let chunk =
            "CREATE TABLE a (k INT);\nINSERT INTO missing VALUES (1);\nCREATE TABLE b (k INT);\n";
        sh.run_script(chunk);
        let names = sh.session.engine().catalog().relation_names();
        assert_eq!(names, ["a"]);
        let e = sh.session.execute_script(chunk).unwrap_err();
        assert_eq!(
            error_message(chunk, &e),
            "error in statement 2 (INSERT INTO missing VALUES (1)): \
             catalog error: unknown relation missing"
        );
        let e = sh
            .session
            .execute_script("SELECT nope FROM a ;\n")
            .unwrap_err();
        let line = error_message("SELECT nope FROM a ;\n", &e);
        assert!(line.starts_with("error: bind error: "), "{line}");
        let e = sh.session.execute_script("SELECT FROM;").unwrap_err();
        assert!(e.statement.is_none());
        assert!(error_message("SELECT FROM;", &e).starts_with("error: "));
    }
}
