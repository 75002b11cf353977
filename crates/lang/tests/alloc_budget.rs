//! Allocation budget of the front end: heap allocations per phase for
//! compiling two example programs, counted by a global allocator.
//!
//! Allocation counts are deterministic where wall time is not, so a
//! front-end change that reintroduces per-node copies fails here
//! without any timing noise. Each budget is the measured count plus
//! 10% slack.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use skil_lang::{bytecode, check, instantiate, opt, parser, OptLevel};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller's guarantees for `new_size` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let v = f();
    (v, ALLOCS.with(Cell::get) - before)
}

/// Per-phase allocation counts: parse, check, instantiate, bytecode, opt.
fn phases(file: &str) -> [u64; 5] {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/skil").join(file);
    let src = std::fs::read_to_string(path).expect("read example");
    let (ast, parse) = count(|| parser::parse(&src).expect("parses"));
    let (mut ck, check) = count(|| check::check(&ast).expect("checks"));
    let (fo, inst) = count(|| instantiate::instantiate(&mut ck).expect("instantiates"));
    let (raw, bc) = count(|| bytecode::compile_program(&fo));
    let (_, opt) = count(|| opt::optimize(&raw, OptLevel::default()));
    [parse, check, inst, bc, opt]
}

fn assert_within(file: &str, measured: [u64; 5], budget: [u64; 5]) {
    const NAMES: [&str; 5] = ["parse", "check", "instantiate", "bytecode", "opt"];
    let total: u64 = measured.iter().sum();
    println!("{file}: {measured:?} total {total}");
    for ((name, got), want) in NAMES.iter().zip(measured).zip(budget) {
        let limit = want + want / 10;
        assert!(
            got <= limit,
            "{file}: {name} made {got} allocations, budget {want} (+10% = {limit}); all phases: {measured:?}"
        );
    }
}

#[test]
fn quicksort_allocations_within_budget() {
    assert_within("quicksort.skil", phases("quicksort.skil"), [101, 41, 262, 51, 86]);
}

#[test]
fn shortest_paths_allocations_within_budget() {
    assert_within("shortest_paths.skil", phases("shortest_paths.skil"), [109, 42, 283, 70, 145]);
}
