//! Rate-constrained internal lines.
//!
//! The internal lines of the PPS operate at rate `r = R/r'`. The paper
//! models this as an occupancy rule: *"a cell sent from an input-port `i` to
//! a plane `k` is transmitted over `r'` time slots; transmission takes place
//! in the first time-slot of this period, and then the line between `i` and
//! `k` is not utilized in the next `r' − 1` time-slots"*. The same rule
//! applies on the plane→output side (*output constraint*).
//!
//! [`LinkBank`] is a flat `A × B` matrix of `busy_until` slots — one row per
//! port on the near side, one column per port on the far side — giving O(1)
//! acquire/test and zero per-slot allocation.

use crate::error::ModelError;
use crate::ids::{PlaneId, PortId};
use crate::time::Slot;

/// Which side of the center stage a [`LinkBank`] models — selects the error
/// variant reported on violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkSide {
    /// Input-port → plane lines (the *input constraint*).
    InputToPlane,
    /// Plane → output-port lines (the *output constraint*).
    PlaneToOutput,
}

/// An `A × B` bank of rate-`r` lines with per-line occupancy tracking.
#[derive(Clone, Debug)]
pub struct LinkBank {
    busy_until: Box<[Slot]>,
    a: usize,
    b: usize,
    r_prime: Slot,
    side: LinkSide,
    /// Total successful acquisitions, for utilization statistics.
    acquisitions: u64,
}

impl LinkBank {
    /// Create a bank of `a × b` idle lines with occupancy window `r_prime`.
    pub fn new(a: usize, b: usize, r_prime: usize, side: LinkSide) -> Self {
        LinkBank {
            busy_until: vec![0; a * b].into_boxed_slice(),
            a,
            b,
            r_prime: r_prime as Slot,
            side,
            acquisitions: 0,
        }
    }

    #[inline]
    fn at(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.a && y < self.b);
        x * self.b + y
    }

    /// Is line `(x, y)` free at slot `now`?
    #[inline]
    pub fn is_free(&self, x: usize, y: usize, now: Slot) -> bool {
        self.busy_until[self.at(x, y)] <= now
    }

    /// Slot at which line `(x, y)` next becomes free.
    #[inline]
    pub fn free_at(&self, x: usize, y: usize) -> Slot {
        self.busy_until[self.at(x, y)]
    }

    /// Occupy line `(x, y)` for a transmission starting at `now`.
    ///
    /// Fails with the appropriate constraint-violation error if the line is
    /// still busy — the caller (engine) treats that as an algorithm bug.
    pub fn acquire(&mut self, x: usize, y: usize, now: Slot) -> Result<(), ModelError> {
        let idx = self.at(x, y);
        let busy_until = self.busy_until[idx];
        if busy_until > now {
            return Err(match self.side {
                LinkSide::InputToPlane => ModelError::InputConstraintViolation {
                    input: PortId(x as u32),
                    plane: PlaneId(y as u32),
                    at: now,
                    busy_until,
                },
                LinkSide::PlaneToOutput => ModelError::OutputConstraintViolation {
                    plane: PlaneId(x as u32),
                    output: PortId(y as u32),
                    at: now,
                    busy_until,
                },
            });
        }
        self.busy_until[idx] = now + self.r_prime;
        self.acquisitions += 1;
        Ok(())
    }

    /// Row `x` of the busy-until matrix: one entry per far-side port.
    ///
    /// This is exactly the *local information* a demultiplexor at input `x`
    /// possesses about its own lines.
    #[inline]
    pub fn row(&self, x: usize) -> &[Slot] {
        &self.busy_until[x * self.b..(x + 1) * self.b]
    }

    /// Number of far-side ports with a free line from `x` at `now`.
    pub fn free_count(&self, x: usize, now: Slot) -> usize {
        self.row(x).iter().filter(|&&bu| bu <= now).count()
    }

    /// Total successful acquisitions since construction.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Occupancy window `r'` of every line in the bank.
    pub fn r_prime(&self) -> Slot {
        self.r_prime
    }

    /// Reset every line to idle (for engine reuse across runs).
    pub fn reset(&mut self) {
        self.busy_until.fill(0);
        self.acquisitions = 0;
    }

    /// Fault-injection: force line `(x, y)` busy through slot `until`
    /// (exclusive), never shortening an existing occupancy. The line
    /// simply looks busy to its owner's local view — exactly how a
    /// degraded physical line presents to a demultiplexor.
    pub fn degrade(&mut self, x: usize, y: usize, until: Slot) {
        let idx = self.at(x, y);
        self.busy_until[idx] = self.busy_until[idx].max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_is_busy_for_exactly_r_prime_slots() {
        let mut bank = LinkBank::new(2, 3, 4, LinkSide::InputToPlane);
        assert!(bank.is_free(0, 1, 0));
        bank.acquire(0, 1, 10).unwrap();
        for t in 10..14 {
            assert!(!bank.is_free(0, 1, t), "slot {t} should be busy");
        }
        assert!(bank.is_free(0, 1, 14));
        // Reuse at exactly now + r' succeeds.
        bank.acquire(0, 1, 14).unwrap();
    }

    #[test]
    fn violation_reports_the_right_side() {
        let mut bank = LinkBank::new(2, 2, 3, LinkSide::PlaneToOutput);
        bank.acquire(1, 0, 5).unwrap();
        let err = bank.acquire(1, 0, 7).unwrap_err();
        assert!(matches!(
            err,
            ModelError::OutputConstraintViolation {
                plane: PlaneId(1),
                output: PortId(0),
                at: 7,
                busy_until: 8,
            }
        ));
    }

    #[test]
    fn rows_are_independent() {
        let mut bank = LinkBank::new(2, 2, 2, LinkSide::InputToPlane);
        bank.acquire(0, 0, 0).unwrap();
        assert!(!bank.is_free(0, 0, 0));
        assert!(bank.is_free(1, 0, 0));
        assert!(bank.is_free(0, 1, 0));
        assert_eq!(bank.free_count(0, 0), 1);
        assert_eq!(bank.free_count(1, 0), 2);
    }

    #[test]
    fn r_prime_one_means_full_rate() {
        // r' = 1 models r = R: the line is free again in the next slot.
        let mut bank = LinkBank::new(1, 1, 1, LinkSide::InputToPlane);
        for t in 0..5 {
            bank.acquire(0, 0, t).unwrap();
        }
        assert_eq!(bank.acquisitions(), 5);
    }

    #[test]
    fn degrade_forces_busy_without_shortening() {
        let mut bank = LinkBank::new(1, 1, 2, LinkSide::InputToPlane);
        bank.degrade(0, 0, 10);
        assert!(!bank.is_free(0, 0, 9));
        assert!(bank.is_free(0, 0, 10));
        assert!(bank.acquire(0, 0, 5).is_err());
        bank.degrade(0, 0, 3); // never shortens an occupancy
        assert!(!bank.is_free(0, 0, 9));
        assert_eq!(bank.acquisitions(), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut bank = LinkBank::new(1, 2, 3, LinkSide::InputToPlane);
        bank.acquire(0, 1, 2).unwrap();
        bank.reset();
        assert!(bank.is_free(0, 1, 0));
        assert_eq!(bank.acquisitions(), 0);
    }
}
