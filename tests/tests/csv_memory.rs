//! Allocation guard: CSV ingest builds columns, never rows.
//!
//! A counting global allocator watches `read_csv_str` over a 200 K-row
//! fact-shaped file (`k` text with 23 values, `i` INT, `f` FLOAT, ~2 %
//! empty fields). The row-wise reader this guards against peaked at ≈ 8×
//! the finished table and made ≈ 10 allocations per row (a `String` per
//! line and per field, a `Vec<Value>` per row, twice); the columnar
//! reader's live set is its growing column vectors and its allocation
//! count is their doublings. This binary holds one test so nothing else
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use mosaic_storage::csv::read_csv_str;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting live bytes, their peak, and calls. `realloc` is the
/// trait's default (allocate, copy, free), so a growing `Vec` is charged
/// for its old and new buffer at once — the pessimistic reading.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and publish no
// other data (hence `Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are those of `System.alloc`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 200_000;

fn fact_csv() -> String {
    let mut rng = StdRng::seed_from_u64(16);
    let mut out = String::with_capacity(ROWS * 20);
    out.push_str("k,i,f\n");
    for _ in 0..ROWS {
        if !rng.random_bool(0.02) {
            write!(out, "g{}", rng.random_range(0..23)).unwrap();
        }
        out.push(',');
        if !rng.random_bool(0.02) {
            write!(out, "{}", rng.random_range(-300..700)).unwrap();
        }
        out.push(',');
        if !rng.random_bool(0.02) {
            write!(out, "{:.2}", rng.random_range(-4.0e5..1.6e6) / 4.0).unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn ingest_allocates_per_column_not_per_row() {
    let csv = fact_csv();
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let allocations = ALLOCATIONS.load(Relaxed);
    let table = read_csv_str(&csv).unwrap();
    let peak = PEAK.load(Relaxed) - before;
    let allocations = ALLOCATIONS.load(Relaxed) - allocations;

    assert_eq!(table.num_rows(), ROWS);
    assert!(table.column(0).is_dict() && table.column(0).null_count() > 0);
    let bytes = table.approx_bytes();
    assert!(
        peak <= 3 * bytes + (1 << 20),
        "peak live bytes during read_csv_str: {peak} for a table of {bytes} ({:.1}x)",
        peak as f64 / bytes as f64
    );
    assert!(
        allocations < ROWS / 100,
        "{allocations} allocations for {ROWS} rows"
    );
}
