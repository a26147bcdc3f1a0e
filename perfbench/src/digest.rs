//! The output digest: a word-at-a-time multiplicative hash over
//! everything a run produced that a speed-only change must leave
//! identical.

use pps_core::prelude::*;

/// Running 64-bit digest. Each word is folded in with one multiply and
/// one rotate, so digesting a departure log costs little next to
/// producing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }

    /// Fold a signed word.
    pub fn signed(&mut self, v: i64) {
        self.word(v as u64);
    }

    /// Fold a string, length-prefixed so concatenations cannot collide.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// Fold every cell's departure slot (`u64::MAX` for undelivered) and
    /// plane, in cell-id order.
    pub fn departures(&mut self, log: &RunLog) {
        self.word(log.len() as u64);
        for r in log.records() {
            self.word(r.departure.unwrap_or(u64::MAX));
            self.word(r.plane.map_or(u64::MAX, |p| u64::from(p.0)));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(f: impl FnOnce(&mut Digest)) -> u64 {
        let mut d = Digest::default();
        f(&mut d);
        d.value()
    }

    #[test]
    fn order_and_every_bit_matter() {
        let pair = |a, b| {
            of(|d| {
                d.word(a);
                d.word(b);
            })
        };
        assert_ne!(pair(1, 2), pair(2, 1));
        for bit in 0..64 {
            assert_ne!(of(|d| d.word(0)), of(|d| d.word(1 << bit)), "bit {bit}");
        }
        assert_ne!(of(|d| d.text("ab")), of(|d| d.text("ab\0")));
    }
}
