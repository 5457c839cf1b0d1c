//! Per-class memo tables for values that depend only on a packet's
//! size.
//!
//! Every packet that starts service or crosses an edge needs a few
//! numbers that are functions of its size alone: a node's work bytes
//! and mean service time, an edge's interface and memory bytes, and
//! each medium's transfer time. Computing them takes float divides
//! and rounding per event. Real traffic has few sizes, typically one
//! per class of a size mixture, so the engine keeps the last value per
//! class instead.
//!
//! A [`SizeTable`] has [`SLOTS`] inline slots; a packet of class `c`
//! uses slot `c % SLOTS`. Each slot stores the size its value was
//! computed for, and a lookup hits only when that size equals the
//! packet's. A hit therefore returns exactly what a fresh computation
//! would: classes sharing a slot, a class seen at several sizes (after
//! a resizing edge, or in a trace replay) or a profile with more
//! classes than slots only cause misses, never a different result.
//! Debug builds recompute the value on every hit and assert that it is
//! equal.

use std::fmt::Debug;

use lognic_model::units::Bytes;

/// Slots per table. The registry's size mixtures have at most three
/// classes.
pub(crate) const SLOTS: usize = 4;

/// The last value computed per class slot, keyed by packet size.
pub(crate) struct SizeTable<T> {
    slots: [(Bytes, T); SLOTS],
}

impl<T: Copy + PartialEq + Debug> SizeTable<T> {
    /// A table whose every slot holds `compute(0 B)`, so a slot needs
    /// no empty marker: a zero-byte packet hits, and gets what
    /// `compute` returns for it.
    pub(crate) fn new(compute: impl FnOnce(Bytes) -> T) -> Self {
        let zero = Bytes::new(0);
        SizeTable {
            slots: [(zero, compute(zero)); SLOTS],
        }
    }

    /// `compute(size)`, from class `class`'s slot when the slot was
    /// filled for `size`. A table must always be given the same
    /// `compute`.
    #[inline]
    pub(crate) fn get(&mut self, class: u32, size: Bytes, compute: impl FnOnce(Bytes) -> T) -> T {
        let slot = &mut self.slots[class as usize % SLOTS];
        if slot.0 == size {
            debug_assert_eq!(slot.1, compute(size), "size-table slot for {size} is stale");
            return slot.1;
        }
        *slot = (size, compute(size));
        slot.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A table over `size × 3` that counts its computations.
    fn lookup(table: &mut SizeTable<u64>, calls: &Cell<u32>, class: u32, size: u64) -> u64 {
        table.get(class, Bytes::new(size), |s| {
            calls.set(calls.get() + 1);
            s.get() * 3
        })
    }

    /// Computations a lookup sequence costs beyond the debug-build
    /// oracle's recomputation on every hit.
    fn misses(calls: &Cell<u32>, lookups: u32, hits: u32) -> u32 {
        if cfg!(debug_assertions) {
            assert_eq!(calls.get(), lookups, "the oracle recomputes every hit");
            lookups - hits
        } else {
            calls.get()
        }
    }

    #[test]
    fn a_repeated_size_hits_its_class_slot() {
        let calls = Cell::new(0);
        let mut t = SizeTable::new(|s| s.get() * 3);
        for _ in 0..5 {
            assert_eq!(lookup(&mut t, &calls, 2, 100), 300);
        }
        assert_eq!(misses(&calls, 5, 4), 1);
    }

    #[test]
    fn colliding_classes_evict_each_other_and_stay_exact() {
        let calls = Cell::new(0);
        let mut t = SizeTable::new(|s| s.get() * 3);
        // Classes 1 and 1 + SLOTS share a slot.
        let other = 1 + SLOTS as u32;
        assert_eq!(lookup(&mut t, &calls, 1, 64), 192);
        assert_eq!(lookup(&mut t, &calls, other, 1500), 4500);
        assert_eq!(lookup(&mut t, &calls, 1, 64), 192);
        assert_eq!(lookup(&mut t, &calls, other, 1500), 4500);
        assert_eq!(misses(&calls, 4, 0), 4);
        // The same size from either class hits the shared slot.
        assert_eq!(lookup(&mut t, &calls, 1, 1500), 4500);
        assert_eq!(misses(&calls, 5, 1), 4);
    }

    #[test]
    fn a_size_change_within_one_class_recomputes() {
        let calls = Cell::new(0);
        let mut t = SizeTable::new(|s| s.get() * 3);
        assert_eq!(lookup(&mut t, &calls, 0, 1000), 3000);
        // A resizing edge halves the packet; same class, new size.
        assert_eq!(lookup(&mut t, &calls, 0, 500), 1500);
        assert_eq!(lookup(&mut t, &calls, 0, 1000), 3000);
        assert_eq!(misses(&calls, 3, 0), 3);
        // Other slots are untouched.
        assert_eq!(lookup(&mut t, &calls, 3, 0), 0);
        assert_eq!(misses(&calls, 4, 1), 3);
    }

    #[test]
    fn a_fresh_table_holds_the_zero_byte_value() {
        let calls = Cell::new(0);
        let mut t = SizeTable::new(|s| s.get() + 7);
        for class in 0..SLOTS as u32 {
            assert_eq!(
                t.get(class, Bytes::new(0), |s| {
                    calls.set(calls.get() + 1);
                    s.get() + 7
                }),
                7
            );
        }
        assert_eq!(misses(&calls, SLOTS as u32, SLOTS as u32), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale")]
    fn the_oracle_catches_a_changed_computation() {
        let mut t = SizeTable::new(|s| s.get());
        t.get(0, Bytes::new(10), |s| s.get());
        t.get(0, Bytes::new(10), |s| s.get() + 1);
    }
}
