//! Exact memory gate for the generator: `generate_by_class` builds each
//! class stream in place and never holds the interleaved whole, so its
//! peak live heap stays close to what it returns. Counted by a
//! `#[global_allocator]`, hence a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use workload::{generate_by_class, GeneratorConfig, TraceEvent};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side statistics only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`; `new_size` is the caller's to get right.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count a resize as its net change, not as a second block.
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One test, so nothing else in this binary allocates while it measures.
#[test]
fn generate_by_class_peaks_below_1_7x_what_it_returns() {
    // One class is the worst case: the whole trace is in flight at once
    // as 48 B arrivals + 16 B departure keys beside the 96 B it returns.
    for classes in [1, 8] {
        let cfg = GeneratorConfig::cluster_day(1994, classes, 100_000);
        let before = LIVE.load(Relaxed);
        PEAK.store(before, Relaxed);
        let streams = generate_by_class(&cfg);
        let peak = PEAK.load(Relaxed) - before;
        let returned = LIVE.load(Relaxed) - before;
        let rows: usize = streams.iter().map(Vec::len).sum();
        assert_eq!(rows, 2 * cfg.arrivals);
        assert!(returned >= rows * std::mem::size_of::<TraceEvent>());
        assert!(
            peak as f64 <= 1.7 * returned as f64,
            "{classes} classes: peak {peak} B for {returned} B returned"
        );
    }
}
