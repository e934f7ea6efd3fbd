//! Span accumulators for the traced run.
//!
//! The benchmark records spans only around its own calls into a layer:
//! the supplier service it registers and the durable step bodies it owns.
//! With tracing off a span is one thread-local flag read.

use std::cell::Cell;
use std::time::Instant;

/// A span kind the benchmark times from outside the program.
#[derive(Debug, Clone, Copy)]
pub enum Slot {
    /// The benchmark-owned `OrderFromSupplier` service.
    Service = 0,
    /// A benchmark-owned durable step body (BIS and WF stacks).
    StepBody = 1,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static NANOS: [Cell<u64>; 2] = const { [Cell::new(0), Cell::new(0)] };
    static CALLS: [Cell<u64>; 2] = const { [Cell::new(0), Cell::new(0)] };
}

/// Turn span recording on or off for this thread.
pub fn set(on: bool) {
    ON.with(|c| c.set(on));
}

/// Is span recording on?
pub fn on() -> bool {
    ON.with(Cell::get)
}

/// Run `f`, adding its duration to `slot` when tracing is on.
pub fn span<T>(slot: Slot, f: impl FnOnce() -> T) -> T {
    if !on() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    NANOS.with(|n| n[slot as usize].set(n[slot as usize].get() + ns));
    CALLS.with(|n| n[slot as usize].set(n[slot as usize].get() + 1));
    out
}

/// Total nanoseconds and calls recorded in `slot` so far.
pub fn totals(slot: Slot) -> (u64, u64) {
    (
        NANOS.with(|n| n[slot as usize].get()),
        CALLS.with(|n| n[slot as usize].get()),
    )
}
