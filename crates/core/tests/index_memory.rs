//! Deterministic memory gate for the indexed Alg. 2 selector: it counts
//! heap bytes through a counting global allocator, so it gates a count,
//! not a time, and reads the same on every host.
//!
//! At Q = 10^5 the first `select` builds the index from a fleet. Two
//! numbers are held: the index's resident bytes per device after that
//! round (`memory_bytes`), and the build's peak live heap above the
//! fleet — what a fleet-scale run pays on top of its fleet while Alg. 2
//! initialises. The peak bound is the value this build order measures
//! plus 5 %: the sorted `(delay bits, id)` keys (16 B per device) are
//! held only beside the id and delay columns they are turned into
//! (12 B per device), and dropped before the rank and count columns are
//! allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fl_sim::selection::{ClientSelector, SelectionContext};
use helcfl::indexed::IndexedDecaySelector;
use mec_sim::population::PopulationBuilder;
use mec_sim::units::Bits;

/// The system allocator, counting live bytes and their high-water mark.
/// The counters publish no other data, so `Relaxed` suffices.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System` upholds the `GlobalAlloc` contract;
// the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass to `System`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, and the caller guarantees `new_size` is valid.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const Q: usize = 100_000;

/// The resident index after the first round: `rank`, `id_at`, `delay_at`
/// and `count_at` (20 B per device) plus two live bucket bitsets.
const MAX_INDEX_BYTES_PER_DEVICE: f64 = 20.3;

/// The build's peak live heap above the fleet, in bytes, at Q = 10^5:
/// the 28 B per device this build order measures (keys, ids and
/// delays at once), plus 5 %.
const MAX_BUILD_PEAK_BYTES: usize = 2_800_000 * 105 / 100;

/// The only test in this file, so no other test allocates while the
/// counters are read.
#[test]
fn the_first_round_stays_within_its_byte_budget() {
    let fleet = PopulationBuilder::paper_default()
        .num_devices(Q)
        .seed(41)
        .build_fleet()
        .unwrap();
    let ctx = SelectionContext {
        round: 1,
        devices: (&fleet).into(),
        payload: Bits::from_megabits(40.0),
        target: 100,
    };
    let mut selector = IndexedDecaySelector::default();
    let above = LIVE.load(Ordering::Relaxed);
    PEAK.store(above, Ordering::Relaxed);
    let picks = selector.select(&ctx).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - above;
    assert_eq!(picks.len(), 100);

    let per_device = selector.memory_bytes() as f64 / Q as f64;
    assert!(
        per_device <= MAX_INDEX_BYTES_PER_DEVICE,
        "the index holds {per_device:.3} B per device, over {MAX_INDEX_BYTES_PER_DEVICE}"
    );
    assert!(
        peak <= MAX_BUILD_PEAK_BYTES,
        "the build peaked {peak} B above the fleet ({:.2} B per device), over {MAX_BUILD_PEAK_BYTES}",
        peak as f64 / Q as f64
    );
}
