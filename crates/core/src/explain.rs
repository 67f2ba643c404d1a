//! `EXPLAIN <select>` rendering: the bound plan at every layer — the
//! canonical logical plan, the optimized logical plan with the fired
//! rule names, and the physical operator pipeline (morsel count, thread
//! budget) — plus the visibility pipeline the engine would run, as lines
//! of a one-column result table.
//!
//! EXPLAIN renders the same [`Prepared`] binding execution runs: it
//! prints the stored plan layers, and for each FROM side the read
//! decision execution carries out ([`read_side`]: the population's
//! sample, its debiasing path, or the error execution would raise) — so
//! it cannot describe a read execution would not do — but executes
//! nothing.

use mosaic_sql::{JoinKind, Visibility};
use mosaic_storage::Table;

use crate::catalog::{Catalog, Mechanism};
use crate::engine::{fingerprint_of, result_cache_on, EngineOptions, MosaicEngine};
use crate::plan::fingerprint::format_fingerprint;
use crate::plan::logical::describe_keys;
use crate::plan::parallel::MORSEL_ROWS;
use crate::plan::{join, Order, Planned};
use crate::session::{BoundRel, Prepared, RelKind, Source};
use crate::source::{combined_weight, mechanism_note, read_side, How, PopulationRead, Read};
use crate::{Knobs, Result};

/// Render the EXPLAIN lines for one bound SELECT: the plan layers, then
/// the result-cache verdict (fingerprint, eligibility, whether a valid
/// entry is cached right now).
pub(crate) fn render(
    engine: &MosaicEngine,
    cat: &Catalog,
    opts: &EngineOptions,
    k: &Knobs,
    bound: &Prepared,
) -> Result<Vec<String>> {
    let mut lines = Vec::new();
    match bound.source() {
        Source::Scalar => {
            lines.push("SELECT (scalar, no FROM)".to_string());
            push_plan(&mut lines, bound.planned(), k, "<one row>", 1);
        }
        Source::Single(rel) => match read_side(cat, rel, bound.visibility())?.read {
            Read::Aux(t) => render_scan(&mut lines, k, bound, rel, t),
            Read::Sample(s) => render_scan(&mut lines, k, bound, rel, &s.data),
            Read::Population(p, how) => {
                let sample = p.sample;
                lines.push(format!("SELECT {} FROM population {}", p.vis, p.pop.name));
                lines.push(format!(
                    "  source: sample {} ({} rows{})",
                    sample.name,
                    sample.len(),
                    match p.view {
                        Some(pred) => format!(", view filter: {pred}"),
                        None => String::new(),
                    }
                ));
                push_read(&mut lines, &p, &how, false, opts, k, bound);
                push_plan(&mut lines, bound.planned(), k, &sample.name, sample.len());
            }
        },
        Source::Join(rels) => render_join(&mut lines, cat, opts, k, bound, rels)?,
    }
    push_footer(&mut lines, k, bound);
    push_cache_lines(&mut lines, engine, cat, opts, k, bound);
    Ok(lines)
}

/// Append the result-cache report.
fn push_cache_lines(
    lines: &mut Vec<String>,
    engine: &MosaicEngine,
    cat: &Catalog,
    opts: &EngineOptions,
    k: &Knobs,
    p: &Prepared,
) {
    let vis = p.visibility().unwrap_or(Visibility::Closed);
    let verdict = if !result_cache_on(opts, k) {
        "off".to_string()
    } else if p.param_count() > 0 {
        // The fingerprint covers the bound values, so each distinct
        // parameter vector caches separately.
        "eligible (keyed per parameter values)".to_string()
    } else {
        let fp = fingerprint_of(p, &[], opts, k, vis);
        lines.push(format!("  fingerprint: {}", format_fingerprint(fp)));
        if engine.result_cached(fp, cat) {
            "eligible, cached".to_string()
        } else {
            "eligible, not cached".to_string()
        }
    };
    lines.push(format!("  result cache: {verdict}"));
}

/// The line saying how one population side is read — the path
/// execution takes, or the error it would raise — plus, for a generated
/// side of an aggregate statement, the replicate-combine line. In a join
/// the line names its side.
fn push_read(
    lines: &mut Vec<String>,
    p: &PopulationRead<'_>,
    how: &Result<How<'_>>,
    joined: bool,
    opts: &EngineOptions,
    k: &Knobs,
    bound: &Prepared,
) {
    let pop = &p.pop.name;
    let side = if joined {
        format!("{pop}: ")
    } else {
        String::new()
    };
    let runs = opts.open.num_generated.max(1);
    let (backend, seed) = (opts.open.backend.id(), k.seed);
    let model = format!("backend {backend}, seed {seed}");
    let how_text = match how {
        Err(e) => format!("{side}execution would fail: {e}"),
        Ok(How::AsIs) if joined => {
            format!("{pop} scans raw sample {}, no reweighting", p.sample.name)
        }
        Ok(How::AsIs) => "raw sample scan, no reweighting".to_string(),
        Ok(How::Mechanism(mechanism, strata)) => {
            let known = match (mechanism, strata) {
                (Mechanism::Uniform { percent }, _) => {
                    format!("known UNIFORM mechanism, {percent}%")
                }
                (Mechanism::Stratified { attr, percent }, Some(_)) => {
                    format!("known STRATIFIED mechanism on {attr}, {percent}%")
                }
                (_, None) => mechanism_note(mechanism, None),
            };
            format!("{side}inverse-probability weights ({known})")
        }
        Ok(How::Ipf(meta)) => format!("{side}IPF reweighting against {}", meta.describe()),
        Ok(How::Generate(_)) if joined => {
            format!("{pop} side generated per replicate: {runs} replicate(s), {model}")
        }
        Ok(How::Generate(_)) => format!("{runs} generative replicate(s), {model}"),
    };
    lines.push(format!("  visibility: {} — {how_text}", p.vis));
    if matches!(how, Ok(How::Generate(_))) && bound.replicate_plan().is_some() {
        lines.push(
            "  combine: keep groups present in every replicate, average \
             aggregates; ORDER BY / LIMIT applied after combining"
                .to_string(),
        );
    }
}

/// Render a table or raw-sample scan: the relation headline, the plan
/// layers, and the scanned table's string encodings.
fn render_scan(lines: &mut Vec<String>, k: &Knobs, bound: &Prepared, rel: &BoundRel, data: &Table) {
    lines.push(match (&rel.binding, rel.kind) {
        (Some(binding), kind) => format!("SELECT FROM {} {} AS {binding}", kind.word(), rel.name),
        (None, RelKind::Sample) => format!(
            "SELECT FROM sample {} (raw scan; engine weights exposed as column `weight`)",
            rel.name
        ),
        (None, kind) => format!("SELECT FROM {} {}", kind.word(), rel.name),
    });
    push_plan(lines, bound.planned(), k, &rel.name, data.num_rows());
    push_encodings(lines, data);
}

fn push_footer(lines: &mut Vec<String>, k: &Knobs, bound: &Prepared) {
    lines.push(format!("  parallelism: {} worker thread(s)", k.threads));
    let params = bound.param_count();
    if params > 0 {
        lines.push(format!("  parameters: {params} positional (?1..?{params})"));
    }
}

/// Append the string-column encoding report for a scanned table:
/// `dict(K)` for dictionary-encoded columns (K distinct values in the
/// dictionary), `plain` for per-row string storage. Non-string columns
/// are elided; the line is omitted when the table has no string columns.
fn push_encodings(lines: &mut Vec<String>, table: &Table) {
    let mut parts = Vec::new();
    for (i, f) in table.schema().fields().iter().enumerate() {
        let col = table.column(i);
        if col.data_type() != mosaic_storage::DataType::Str {
            continue;
        }
        let enc = match col.dict_parts() {
            Some((_, dict)) => format!("dict({})", dict.len()),
            None => "plain".to_string(),
        };
        parts.push(format!("{}={enc}", f.name));
    }
    if !parts.is_empty() {
        lines.push(format!("  encodings: {}", parts.join(", ")));
    }
}

/// Render a join: the resolved relations — population sides with their
/// visibility pipeline — the join mechanics (kind, keys, build-side
/// rule, weight combination), and the usual logical/optimized/physical
/// plan layers.
fn render_join(
    lines: &mut Vec<String>,
    cat: &Catalog,
    opts: &EngineOptions,
    k: &Knobs,
    bound: &Prepared,
    rels: &[BoundRel],
) -> Result<()> {
    let fc = bound
        .stmt()
        .from
        .as_ref()
        .expect("join statements have FROM");
    let vis = bound.visibility();
    let kind = fc.joins[0].kind;
    let join_word = match kind {
        JoinKind::Inner => " INNER JOIN ",
        JoinKind::LeftOuter => " LEFT JOIN ",
    };
    let headline: Vec<String> = fc.relations().map(|t| t.to_string()).collect();
    let vis_prefix = vis.map(|v| format!("{v} ")).unwrap_or_default();
    lines.push(format!(
        "SELECT {vis_prefix}FROM {}",
        headline.join(join_word)
    ));
    // Each side's current row count; population sides also name their
    // chosen sample.
    let sides = rels
        .iter()
        .map(|rel| read_side(cat, rel, vis))
        .collect::<Result<Vec<_>>>()?;
    let mut rows = Vec::with_capacity(rels.len());
    for (i, (rel, side)) in rels.iter().zip(&sides).enumerate() {
        let (n, via) = match &side.read {
            Read::Aux(t) => (t.num_rows(), String::new()),
            Read::Sample(s) => (s.len(), String::new()),
            Read::Population(p, _) => (p.sample.len(), format!(", via sample {}", p.sample.name)),
        };
        rows.push(n);
        lines.push(format!(
            "  {}: {} {} ({n} rows{via}{})",
            if i == 0 { "left" } else { "right" },
            rel.kind.word(),
            rel.name,
            if side.weighted {
                ", weights exposed as column `weight`"
            } else {
                ""
            },
        ));
    }
    for side in &sides {
        if let Read::Population(p, how) = &side.read {
            push_read(lines, p, how, true, opts, k, bound);
        }
    }
    if let Some((_, combined)) = combined_weight(&sides) {
        lines.push(format!("  combined weight: {combined}"));
    }
    let (lrows, rrows) = (rows[0], rows[1]);
    let kind_name = match kind {
        JoinKind::Inner => "INNER",
        JoinKind::LeftOuter => "LEFT OUTER",
    };
    let outer_note = match kind {
        JoinKind::Inner => "",
        JoinKind::LeftOuter => "; unmatched left rows NULL-extend the right side",
    };
    let op = bound.planned().physical.join.as_ref();
    if op.is_some_and(|j| !j.left.filters.is_empty() || !j.right.filters.is_empty()) {
        // The executor applies its gates to the rows the pushed filters
        // keep, which only execution counts: name no side and no table.
        lines.push(format!(
            "  join: {kind_name} hash equi-join; build = smaller input after the pushed \
             filters, chosen at execution; probe = the other input, streamed per morsel, in \
             canonical (left row, right row) order (counting-sorted into it when the left \
             input builds){outer_note}"
        ));
        lines.push(
            "  join build: chosen at execution from the rows that survive the pushed filters"
                .to_string(),
        );
    } else {
        // The executor's own gates, applied to the row counts it sees.
        let build_is_left = join::build_is_left(lrows, rrows);
        let (build, probe, build_side) = if build_is_left {
            (&rels[0], &rels[1], 0)
        } else {
            (&rels[1], &rels[0], 1)
        };
        let order = if build_is_left {
            "then counting-sorted into"
        } else {
            "already in"
        };
        lines.push(format!(
            "  join: {kind_name} hash equi-join; build = smaller input ({}, currently); probe = \
             {}, streamed per morsel, {order} canonical (left row, right row) order{outer_note}",
            build.name, probe.name
        ));
        let build_keys = op.map(|j| {
            if build_is_left {
                &j.left.keys
            } else {
                &j.right.keys
            }
        });
        let dict_len =
            build_keys.and_then(|keys| key_dict_len(read_table(&sides[build_side].read), keys));
        let strategy = join::build_strategy(dict_len, lrows.min(rrows));
        lines.push(format!("  join build: {strategy}"));
    }
    let sym = match kind {
        JoinKind::Inner => "⋈",
        JoinKind::LeftOuter => "⟕",
    };
    push_plan(
        lines,
        bound.planned(),
        k,
        &format!("{} {sym} {}", fc.base.name, fc.joins[0].table.name),
        lrows.max(rrows),
    );
    Ok(())
}

/// The table a join side reads (a population's through its sample).
fn read_table<'c>(read: &Read<'c>) -> &'c Table {
    match read {
        Read::Aux(t) => t,
        Read::Sample(s) => &s.data,
        Read::Population(p, _) => &p.sample.data,
    }
}

/// The dictionary size a single TEXT join key builds on: its column's
/// dictionary, or the one encoding a plain column would give it.
fn key_dict_len(table: &Table, keys: &[mosaic_sql::Expr]) -> Option<usize> {
    let [mosaic_sql::Expr::Column(name)] = keys else {
        return None;
    };
    let col = table.column_by_name(name).ok()?;
    if col.data_type() != mosaic_storage::DataType::Str {
        return None;
    }
    col.dict_encoded().dict_parts().map(|(_, dict)| dict.len())
}

/// Append the plan lines: logical before/after with the fired rule
/// names, then the physical pipeline — scan (with its morsel split and
/// pruned column list) plus each operator's description, and how a full
/// Sort runs when the plan carries one. `rows` is the pre-filter scan
/// bound.
fn push_plan(lines: &mut Vec<String>, planned: &Planned, k: &Knobs, source: &str, rows: usize) {
    lines.push(format!("  logical: {}", planned.logical));
    if !k.optimizer {
        lines.push("  optimizer: off".to_string());
    } else if planned.fired.is_empty() {
        lines.push("  optimized: (no rules fired)".to_string());
    } else {
        lines.push(format!("  optimized: {}", planned.optimized));
        lines.push(format!("    rules fired: {}", planned.fired.join(", ")));
    }
    let plan = &planned.physical;
    let morsels = rows.div_ceil(MORSEL_ROWS).max(1);
    lines.push(format!("  plan: {plan}"));
    let cols = match plan.scan_columns() {
        Some(cols) => format!(", columns: [{}]", cols.join(", ")),
        None => String::new(),
    };
    lines.push(format!(
        "    Scan: {source} ({rows} rows, {morsels} morsel(s) of {MORSEL_ROWS} rows{cols})"
    ));
    for d in plan.describe_operators() {
        lines.push(format!("    {d}"));
    }
    for stage in &plan.order {
        let Order::Sort { keys } = stage else {
            continue;
        };
        let chain: Vec<String> = keys
            .iter()
            .map(|k| describe_keys(std::slice::from_ref(k)))
            .collect();
        let input = if plan.order_reads_input {
            "; keys read the pre-projection rows"
        } else {
            ""
        };
        lines.push(format!(
            "    sort: integer sort of (u64 prefix, row id) pairs on the calling thread, key by \
             key: {}; full comparator only where a prefix cannot decide (TEXT, NULL beside the \
             minimum){input}",
            chain.join(" → ")
        ));
    }
}

#[cfg(test)]
mod tests {
    use crate::{MosaicEngine, Visibility};
    use std::sync::Arc;

    fn lines_of(result: &crate::QueryResult) -> Vec<String> {
        (0..result.table.num_rows())
            .map(|r| result.table.value(r, 0).to_string())
            .collect()
    }

    #[test]
    fn explain_aux_table_query() {
        let engine = Arc::new(MosaicEngine::new());
        // Explicit override: the assertions are about the optimized
        // rendering regardless of the ambient MOSAIC_OPTIMIZER default.
        let s = engine.session().with_optimizer(true);
        s.execute("CREATE TABLE t (k TEXT, v INT); INSERT INTO t VALUES ('a', 1), ('b', 2);")
            .unwrap();
        let r = s
            .execute("EXPLAIN SELECT k, COUNT(*) FROM t WHERE v > 0 GROUP BY k ORDER BY k LIMIT 5")
            .unwrap();
        let text = lines_of(&r).join("\n");
        assert!(text.contains("SELECT FROM table t"), "{text}");
        assert!(
            text.contains("logical: Scan → Filter(v > 0) → Aggregate"),
            "{text}"
        );
        assert!(
            text.contains("Scan → Filter → HashAggregate → TopK"),
            "{text}"
        );
        assert!(text.contains("rules fired: sort_limit_fusion"), "{text}");
        assert!(text.contains("Filter: v > 0"), "{text}");
        assert!(text.contains("2 rows, 1 morsel(s)"), "{text}");
        assert!(text.contains("parallelism:"), "{text}");
        // String columns report their encoding (TEXT ingest builds a
        // dictionary over the 2 distinct keys).
        assert!(text.contains("encodings: k=dict(2)"), "{text}");
    }

    /// The aggregate merge has one serial form, so EXPLAIN reports no
    /// merge setting, and a session cannot set the retired partition
    /// count.
    #[test]
    fn explain_reports_no_merge_partitions() {
        let engine = Arc::new(MosaicEngine::new());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (k TEXT, v INT); INSERT INTO t VALUES ('a', 1);")
            .unwrap();
        for sql in ["SELECT k, COUNT(*) FROM t GROUP BY k", "SELECT k FROM t"] {
            let text = lines_of(&s.execute(&format!("EXPLAIN {sql}")).unwrap()).join("\n");
            assert!(text.contains("parallelism:"), "{text}");
            assert!(!text.contains("aggregate merge"), "{text}");
            assert!(!text.contains("partition"), "{text}");
        }
        let err = s.set("partitions", "1").unwrap_err();
        assert!(err.starts_with("unknown option partitions"), "{err}");
    }

    #[test]
    fn explain_reports_sort_strategy() {
        use crate::plan::parallel::MORSEL_ROWS;
        use mosaic_storage::{DataType, Field, Schema, TableBuilder, Value};
        let engine = Arc::new(MosaicEngine::new());
        let mut b = TableBuilder::new(Schema::new(vec![
            Field::new("v", DataType::Int),
            Field::new("w", DataType::Int),
        ]));
        for r in 0..(2 * MORSEL_ROWS + 5) {
            b.push_row(vec![Value::Int(r as i64), Value::Int(-(r as i64))])
                .unwrap();
        }
        engine.register_table("big", b.finish()).unwrap();
        let s = engine.session().with_parallelism(8).with_optimizer(true);
        let r = s
            .execute("EXPLAIN SELECT v FROM big ORDER BY v DESC")
            .unwrap();
        let sort_line = |r: &crate::QueryResult| {
            lines_of(r)
                .into_iter()
                .find(|l| l.trim_start().starts_with("sort:"))
        };
        assert_eq!(
            sort_line(&r).as_deref().map(str::trim),
            Some(
                "sort: integer sort of (u64 prefix, row id) pairs on the calling thread, key by \
                 key: v DESC; full comparator only where a prefix cannot decide (TEXT, NULL \
                 beside the minimum)"
            ),
        );
        // The thread budget does not change how a Sort runs.
        let serial = s.clone().with_parallelism(1);
        let r1 = serial
            .execute("EXPLAIN SELECT v FROM big ORDER BY v DESC")
            .unwrap();
        assert_eq!(sort_line(&r1), sort_line(&r));
        // More keys re-key in order; a key the projection drops reads the
        // pre-projection rows.
        let r = s
            .execute("EXPLAIN SELECT v FROM big WHERE v > 3 ORDER BY w, v")
            .unwrap();
        let text = lines_of(&r).join("\n");
        assert!(
            text.contains(
                "key by key: w → v; full comparator only where a prefix cannot decide (TEXT, \
                 NULL beside the minimum); keys read the pre-projection rows"
            ),
            "{text}"
        );
        // Fused TopK is not a full Sort: no sort-strategy line at all.
        let r = s
            .execute("EXPLAIN SELECT v FROM big ORDER BY v DESC LIMIT 5")
            .unwrap();
        let text = lines_of(&r).join("\n");
        assert!(text.contains("TopK"), "{text}");
        assert!(!text.contains("sort:"), "{text}");
        // A Sort over an aggregate sorts its output the same way.
        let r = s
            .execute("EXPLAIN SELECT v, COUNT(*) AS c FROM big GROUP BY v ORDER BY c DESC")
            .unwrap();
        let text = lines_of(&r).join("\n");
        assert!(text.contains("key by key: c DESC;"), "{text}");
        assert!(
            !text.contains("keys read the pre-projection rows"),
            "{text}"
        );
    }

    /// The `join build:` line names the one table the executor builds on
    /// a hashed key, whatever the build side's size, and no table when a
    /// pushed filter decides the build side at execution.
    #[test]
    fn explain_reports_join_build_strategy() {
        use crate::plan::parallel::MORSEL_ROWS;
        use mosaic_storage::{DataType, Field, Schema, TableBuilder, Value};
        let engine = Arc::new(MosaicEngine::new());
        let mut dim = TableBuilder::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("grp", DataType::Int),
        ]));
        for r in 0..(MORSEL_ROWS + 10) {
            dim.push_row(vec![Value::Int(r as i64), Value::Int((r % 7) as i64)])
                .unwrap();
        }
        engine.register_table("dim", dim.finish()).unwrap();
        let mut fact = TableBuilder::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        for r in 0..(2 * MORSEL_ROWS) {
            fact.push_row(vec![Value::Int(r as i64)]).unwrap();
        }
        engine.register_table("fact", fact.finish()).unwrap();
        let s = engine.session().with_optimizer(true);
        s.execute("CREATE TABLE tiny (k INT, grp INT); INSERT INTO tiny VALUES (1, 1), (2, 2);")
            .unwrap();
        let explain =
            |sql: &str| lines_of(&s.execute(&format!("EXPLAIN {sql}")).unwrap()).join("\n");
        // Build = the smaller input, over one morsel or more.
        for build in ["dim", "tiny"] {
            let text = explain(&format!(
                "SELECT fact.k FROM fact JOIN {build} ON fact.k = {build}.k"
            ));
            assert!(
                text.contains("join build: hash table on normalized key tokens"),
                "{text}"
            );
            assert!(text.contains(&format!("({build}, currently)")), "{text}");
        }
        let text = explain("SELECT fact.k FROM fact JOIN dim ON fact.k = dim.k WHERE dim.grp = 1");
        assert!(
            text.contains(
                "join build: chosen at execution from the rows that survive the pushed filters"
            ),
            "{text}"
        );
        assert!(!text.contains("currently"), "{text}");
    }

    /// The join and TopK lines say where the work runs, from the same
    /// gates the executor branches on: the build side (counting sort back
    /// to canonical order when it is the left one) and the per-morsel
    /// TopK (bare sort keys over a projection only).
    #[test]
    fn explain_reports_where_join_and_topk_work_runs() {
        let engine = Arc::new(MosaicEngine::new());
        let s = engine.session().with_optimizer(true);
        s.execute(
            "CREATE TABLE big (k INT, v INT); INSERT INTO big VALUES (1, 1), (2, 2), (3, 3);
             CREATE TABLE small (k INT); INSERT INTO small VALUES (1);",
        )
        .unwrap();
        let explain =
            |sql: &str| lines_of(&s.execute(&format!("EXPLAIN {sql}")).unwrap()).join("\n");
        let text = explain("SELECT big.v FROM big JOIN small ON big.k = small.k");
        assert!(
            text.contains("probe = big, streamed per morsel, already in canonical"),
            "{text}"
        );
        assert!(
            text.contains("probe and output gather per morsel"),
            "{text}"
        );
        let text = explain("SELECT big.v FROM small JOIN big ON small.k = big.k");
        assert!(
            text.contains("then counting-sorted into canonical"),
            "{text}"
        );
        let text = explain("SELECT k FROM big ORDER BY v DESC LIMIT 2");
        assert!(
            text.contains("TopK: [v DESC] limit 2 (a bounded heap per morsel"),
            "{text}"
        );
        // A computed key may resolve differently per morsel: one heap
        // over the merged projection instead.
        let text = explain("SELECT k FROM big ORDER BY v + 1 LIMIT 2");
        assert!(text.contains("TopK: [v + 1] limit 2"), "{text}");
        assert!(!text.contains("per morsel"), "{text}");
        // Over an aggregate the TopK runs on the merged groups.
        let text = explain("SELECT k, COUNT(*) AS c FROM big GROUP BY k ORDER BY k LIMIT 2");
        assert!(!text.contains("heap per morsel"), "{text}");
    }

    #[test]
    fn explain_shows_pruned_scan_and_folded_constants() {
        let engine = Arc::new(MosaicEngine::new());
        let s = engine.session().with_optimizer(true);
        s.execute(
            "CREATE TABLE wide (a INT, b INT, c INT, d INT);
             INSERT INTO wide VALUES (1, 2, 3, 4);",
        )
        .unwrap();
        let r = s
            .execute("EXPLAIN SELECT a FROM wide WHERE b > 1 + 1")
            .unwrap();
        let text = lines_of(&r).join("\n");
        assert!(text.contains("Scan[a#0, b#1]"), "{text}");
        assert!(text.contains("Filter(b > 2)"), "{text}");
        assert!(
            text.contains("rules fired: constant_folding, projection_pruning"),
            "{text}"
        );
        assert!(text.contains("columns: [a, b]"), "{text}");

        // Optimizer off: logical only, no rewrite lines.
        let off = s.clone().with_optimizer(false);
        let r = off
            .execute("EXPLAIN SELECT a FROM wide WHERE b > 1 + 1")
            .unwrap();
        let text = lines_of(&r).join("\n");
        assert!(text.contains("optimizer: off"), "{text}");
        assert!(!text.contains("rules fired"), "{text}");
        assert!(text.contains("Filter(b > 1 + 1)"), "{text}");
    }

    /// EXPLAIN's line for a side carries execution's own note or error
    /// text: a STRATIFIED sample without a marginal over its attribute
    /// (the uniform fallback), OPEN without metadata (an error), a join
    /// of two samples (a product that is never re-calibrated).
    #[test]
    fn explain_states_what_execution_does() {
        let engine = Arc::new(MosaicEngine::new());
        let s = engine.session().with_result_cache(false);
        s.execute(
            "CREATE GLOBAL POPULATION P (region TEXT, v INT);
             CREATE SAMPLE SS AS (SELECT * FROM P USING MECHANISM STRATIFIED ON region PERCENT 10);
             INSERT INTO SS VALUES ('a', 1), ('a', 2), ('b', 3);
             CREATE POPULATION Q AS (SELECT * FROM P WHERE v > 1);
             CREATE SAMPLE SQ AS (SELECT * FROM Q);
             INSERT INTO SQ VALUES ('a', 2), ('b', 3);",
        )
        .unwrap();
        let line = |sql: &str, prefix: &str| {
            let r = s.execute(&format!("EXPLAIN {sql}")).unwrap();
            let lines = lines_of(&r);
            let found = lines.iter().find(|l| l.starts_with(prefix)).cloned();
            found.unwrap_or_else(|| panic!("no {prefix:?} line: {lines:#?}"))
        };

        let sql = "SELECT SEMI-OPEN COUNT(*) FROM P";
        let notes = s.execute(sql).unwrap().notes;
        let fallback = notes.iter().find(|n| n.contains("falling back")).unwrap();
        let explained = line(sql, "  visibility:");
        assert!(
            explained.contains(fallback.as_str()),
            "{explained}\n{notes:?}"
        );

        let sql = "SELECT OPEN COUNT(*) FROM Q";
        let err = s.execute(sql).unwrap_err();
        let explained = line(sql, "  visibility:");
        assert!(
            explained.ends_with(&format!("execution would fail: {err}")),
            "{explained}"
        );

        let sql = "SELECT x.v FROM SS x JOIN SQ y ON x.v = y.v";
        let notes = s.execute(sql).unwrap().notes;
        let combined = notes
            .iter()
            .find_map(|n| n.strip_prefix("combined weight = "))
            .unwrap();
        let explained = line(sql, "  combined weight:");
        assert_eq!(explained, format!("  combined weight: {combined}"));
        assert!(!explained.contains("IPF"), "{explained}");
    }

    #[test]
    fn explain_population_pipeline_and_params() {
        let engine = Arc::new(MosaicEngine::new());
        let s = engine.session();
        s.execute(
            "CREATE TABLE Report (city TEXT, n INT);
             INSERT INTO Report VALUES ('x', 10), ('y', 30);
             CREATE GLOBAL POPULATION People (city TEXT);
             CREATE METADATA People_M1 AS (SELECT city, n FROM Report);
             CREATE SAMPLE S AS (SELECT * FROM People);
             INSERT INTO S VALUES ('x'), ('y'), ('y');",
        )
        .unwrap();
        // EXPLAIN accepts parameter placeholders without values.
        let r = s
            .execute(
                "EXPLAIN SELECT SEMI-OPEN city, COUNT(*) FROM People WHERE city = ? GROUP BY city",
            )
            .unwrap();
        let text = lines_of(&r).join("\n");
        assert!(
            text.contains("SELECT SEMI-OPEN FROM population People"),
            "{text}"
        );
        assert!(
            text.contains("IPF reweighting against 1 marginal(s) of People"),
            "{text}"
        );
        assert!(text.contains("HashAggregate[weighted]"), "{text}");
        assert!(text.contains("Filter: city = ?1"), "{text}");
        assert!(text.contains("parameters: 1 positional"), "{text}");

        let r = s
            .execute("EXPLAIN SELECT OPEN city, COUNT(*) FROM People GROUP BY city")
            .unwrap();
        let text = lines_of(&r).join("\n");
        assert!(text.contains("visibility: OPEN"), "{text}");
        assert!(text.contains("replicate(s)"), "{text}");

        // CLOSED plans are unweighted.
        let closed = engine.session().with_default_visibility(Visibility::Closed);
        let r = closed
            .execute("EXPLAIN SELECT city, COUNT(*) FROM People GROUP BY city")
            .unwrap();
        let text = lines_of(&r).join("\n");
        assert!(text.contains("CLOSED — raw sample scan"), "{text}");
        assert!(text.contains("HashAggregate:"), "{text}");
    }
}
