//! `.g` loading allocates a fixed number of blocks, whatever the size
//! of the graph: a first scan bounds the events, arcs and label bytes,
//! and the graph's flat arrays are sized once from those bounds.
//!
//! A counting global allocator tallies the allocations and reallocations
//! each thread makes; `parse_stg` must make as many for a 4096-event
//! text as for a 256-event one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tsg::stg::{parse_stg, StgOptions};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may be gone while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while parsing `text`.
fn allocations_of(text: &str) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let sg = parse_stg(text, StgOptions::default()).expect("written text parses");
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(sg);
    made
}

#[test]
fn parse_allocations_do_not_grow_with_the_graph() {
    let counts: Vec<(usize, usize)> = [256, 1024, 4096]
        .into_iter()
        .map(|events| {
            let text = tsg_bench::ring_with_chords_text(events);
            (events, allocations_of(&text))
        })
        .collect();
    assert!(
        counts.iter().all(|&(_, n)| n == counts[0].1),
        "allocations per parse (events, count): {counts:?}"
    );
}
