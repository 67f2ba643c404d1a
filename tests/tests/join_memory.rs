//! Allocation guard: a join and a TopK hold per-morsel state, never a
//! buffer sized to the whole result.
//!
//! A counting global allocator records the largest single allocation
//! made while a query runs over a fact table of many morsels. A join that
//! gathers every joined row before the post-join pipeline, or a TopK that
//! first concatenates the whole projection, needs at least one byte per
//! joined (projected) row in one buffer — its row-index vectors alone take
//! eight. The streamed join and the per-morsel TopK heaps allocate per
//! morsel of 16 Ki rows, so their largest allocation stays far below that.
//! This binary holds one test so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use mosaic_core::MosaicEngine;
use mosaic_storage::{Column, DataType, Field, Schema, Table};

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// `System`, recording the largest allocation made while armed.
/// `realloc` is the trait's default (allocate, copy, free), so a growing
/// `Vec` is charged for the size it grows to.
struct Largest;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and publish no
// other data (hence `Relaxed`).
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            LARGEST.fetch_max(layout.size(), Relaxed);
        }
        // SAFETY: the caller's obligations are those of `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// 48 morsels of fact rows, every one of which joins exactly once.
const ROWS: usize = 48 * 16 * 1024;

fn engine() -> Arc<MosaicEngine> {
    let keys: Vec<String> = (0..ROWS).map(|r| format!("g{}", r % 23)).collect();
    let fact = Table::new(
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
        ]),
        vec![
            Column::from_str(keys),
            Column::from_i64((0..ROWS as i64).map(|r| r % 1000 - 300).collect()),
            Column::from_f64(
                (0..ROWS)
                    .map(|r| (r * 7919 % 100_003) as f64 / 4.0)
                    .collect(),
            ),
        ],
    )
    .unwrap();
    let dim = Table::new(
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("grp", DataType::Str),
            Field::new("boost", DataType::Int),
        ]),
        vec![
            Column::from_str((0..23).map(|j| format!("g{j}")).collect()),
            Column::from_str((0..23).map(|j| format!("h{}", j % 5)).collect()),
            Column::from_i64((0..23).map(|j| j % 7).collect()),
        ],
    )
    .unwrap();
    let engine = Arc::new(MosaicEngine::new());
    engine.register_table("t", fact).unwrap();
    engine.register_table("d", dim).unwrap();
    engine
}

/// The largest single allocation made while `sql` runs (after one
/// unmeasured run, so plan and catalog caches are warm).
fn largest_allocation(engine: &Arc<MosaicEngine>, sql: &str) -> usize {
    let session = engine
        .session()
        .with_parallelism(2)
        .with_optimizer(true)
        .with_result_cache(false);
    session.query(sql).unwrap();
    LARGEST.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = session.query(sql);
    ARMED.store(false, Relaxed);
    assert!(out.unwrap().num_rows() > 0, "{sql}");
    LARGEST.load(Relaxed)
}

#[test]
fn join_and_topk_hold_no_buffer_sized_to_the_result() {
    let engine = engine();
    let oversized: Vec<String> = [
        "SELECT d.grp AS grp, COUNT(*) AS c, SUM(t.i) AS s, AVG(t.f) AS a \
         FROM t JOIN d ON t.k = d.k GROUP BY d.grp ORDER BY grp",
        "SELECT t.k, d.boost, t.i FROM t JOIN d ON t.k = d.k WHERE t.i > 200 \
         ORDER BY t.i DESC, t.k, d.boost LIMIT 30",
        "SELECT k, i, f FROM t ORDER BY f DESC, i, k LIMIT 50",
    ]
    .into_iter()
    .filter_map(|sql| {
        let largest = largest_allocation(&engine, sql);
        (largest >= ROWS).then(|| format!("{sql}: one allocation of {largest} bytes"))
    })
    .collect();
    assert!(
        oversized.is_empty(),
        "buffers sized to {ROWS} joined or projected rows:\n{}",
        oversized.join("\n")
    );
}
