//! [`run_select`]: plan a SELECT and run it over one table with optional
//! row weights, without binding it against a catalog.
//!
//! Weights realize the paper's weighted-aggregate rewrite (§5.3: "To run
//! the aggregate queries over a weighted sample, we simply modify the
//! aggregate to be over a weight attribute (e.g. COUNT(*) becomes
//! SUM(weight))"). With `weights = None`, aggregates behave like ordinary
//! SQL. The plan runs through [`crate::PhysicalPlan::run`], the one way
//! any plan runs; ordering an OPEN answer after its replicates combine
//! is the plan's own ordering stages (see `engine.rs`), not a second
//! implementation here.

use mosaic_sql::SelectStmt;
use mosaic_storage::Table;

use crate::plan::{self, ExecContext, PlanInput};
use crate::{Knobs, Result};

/// Execute a SELECT over one table through the vectorized, morsel-driven
/// physical plan. `weights` (parallel to the table's rows) turns
/// aggregates into weighted aggregates. Uses the process-default thread
/// cap and optimizer setting ([`Knobs::from_env`]); neither ever changes
/// results. Kept for the
/// `mosaicbench` package, whose accuracy check computes its ground truth
/// with it; everything else asks a [`crate::Session`].
pub fn run_select(stmt: &SelectStmt, table: &Table, weights: Option<&[f64]>) -> Result<Table> {
    let k = Knobs::from_env();
    let ctx = ExecContext::new(&[], k.threads);
    plan::plan_select(stmt, weights.is_some(), k.optimizer, Some(table.schema()))
        .physical
        .run(PlanInput::Table { table, weights }, &ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sql::{parse, Statement};
    use mosaic_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("carrier", DataType::Str),
            Field::new("distance", DataType::Int),
            Field::new("elapsed", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (c, d, e) in [
            ("AA", 100, 60.0),
            ("AA", 500, 120.0),
            ("WN", 900, 180.0),
            ("WN", 1500, 240.0),
            ("US", 300, 90.0),
        ] {
            b.push_row(vec![c.into(), (d as i64).into(), e.into()])
                .unwrap();
        }
        b.finish()
    }

    fn select(src: &str) -> SelectStmt {
        match parse(src).unwrap().pop().unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn simple_projection_and_filter() {
        let t = table();
        let out = run_select(
            &select("SELECT carrier, distance FROM t WHERE distance > 400"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 2);
    }

    #[test]
    fn wildcard_preserves_all_columns() {
        let t = table();
        let out = run_select(&select("SELECT * FROM t"), &t, None).unwrap();
        assert_eq!(out.num_columns(), 3);
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn unweighted_aggregates() {
        let t = table();
        let out = run_select(
            &select(
                "SELECT COUNT(*), SUM(distance), AVG(elapsed), MIN(distance), MAX(distance) FROM t",
            ),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.value(0, 0), Value::Int(5));
        assert_eq!(out.value(0, 1), Value::Int(3300));
        assert_eq!(out.value(0, 2), Value::Float(138.0));
        assert_eq!(out.value(0, 3), Value::Int(100));
        assert_eq!(out.value(0, 4), Value::Int(1500));
    }

    #[test]
    fn weighted_aggregates_match_rewrite() {
        let t = table();
        let w = [10.0, 10.0, 1.0, 1.0, 1.0];
        let out = run_select(
            &select("SELECT COUNT(*), AVG(distance) FROM t"),
            &t,
            Some(&w),
        )
        .unwrap();
        assert_eq!(out.value(0, 0), Value::Float(23.0));
        let avg = (10.0 * 100.0 + 10.0 * 500.0 + 900.0 + 1500.0 + 300.0) / 23.0;
        assert!((out.value(0, 1).as_f64().unwrap() - avg).abs() < 1e-9);
    }

    #[test]
    fn group_by_with_weights() {
        let t = table();
        let w = [2.0, 3.0, 1.0, 1.0, 5.0];
        let out = run_select(
            &select("SELECT carrier, COUNT(*) FROM t GROUP BY carrier ORDER BY carrier"),
            &t,
            Some(&w),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, 0), Value::Str("AA".into()));
        assert_eq!(out.value(0, 1), Value::Float(5.0));
        assert_eq!(out.value(1, 0), Value::Str("US".into()));
        assert_eq!(out.value(1, 1), Value::Float(5.0));
        assert_eq!(out.value(2, 1), Value::Float(2.0));
    }

    #[test]
    fn paper_query_shape() {
        // Query 5 of Table 2 (with the bracket IN list).
        let t = table();
        let out = run_select(
            &select("SELECT carrier, AVG(distance) FROM t WHERE elapsed > 100 AND carrier IN ['WN', 'AA'] GROUP BY carrier ORDER BY carrier"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, 1), Value::Float(500.0)); // AA: only the 500 row
        assert_eq!(out.value(1, 1), Value::Float(1200.0)); // WN: (900+1500)/2
    }

    #[test]
    fn aggregate_arithmetic() {
        let t = table();
        let out = run_select(&select("SELECT SUM(distance) / COUNT(*) FROM t"), &t, None).unwrap();
        assert_eq!(out.value(0, 0), Value::Float(660.0));
    }

    #[test]
    fn empty_group_semantics() {
        let t = table();
        let out = run_select(
            &select("SELECT COUNT(*), SUM(distance) FROM t WHERE distance > 99999"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), Value::Int(0));
        assert_eq!(out.value(0, 1), Value::Null);
    }

    #[test]
    fn group_by_empty_table_returns_no_groups() {
        let t = table();
        let out = run_select(
            &select("SELECT carrier, COUNT(*) FROM t WHERE distance > 99999 GROUP BY carrier"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn projection_must_be_grouped() {
        let t = table();
        assert!(run_select(
            &select("SELECT elapsed, COUNT(*) FROM t GROUP BY carrier"),
            &t,
            None
        )
        .is_err());
    }

    #[test]
    fn order_by_aggregate_desc_and_limit() {
        let t = table();
        let out = run_select(
            &select("SELECT carrier, COUNT(*) AS c FROM t GROUP BY carrier ORDER BY c DESC, carrier LIMIT 2"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, 0), Value::Str("AA".into()));
        assert_eq!(out.value(1, 0), Value::Str("WN".into()));
    }

    #[test]
    fn alias_names_output() {
        let t = table();
        let out = run_select(&select("SELECT AVG(distance) AS avg_dist FROM t"), &t, None).unwrap();
        assert_eq!(out.schema().field(0).name, "avg_dist");
    }

    #[test]
    fn weight_length_mismatch_is_error() {
        let t = table();
        assert!(run_select(&select("SELECT COUNT(*) FROM t"), &t, Some(&[1.0])).is_err());
    }

    #[test]
    fn order_by_input_column_for_plain_select() {
        let t = table();
        let out = run_select(
            &select("SELECT carrier FROM t ORDER BY distance DESC LIMIT 1"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.value(0, 0), Value::Str("WN".into()));
    }
}
