//! Segment-level producer bloom filter.
//!
//! Each sealed v3 segment carries a bloom filter over the distinct
//! producer ids appearing in its rows, mirrored into the manifest so a
//! producer-filtered scan can skip whole segments without any file I/O.
//! The filter is sized for a ~1% false-positive target (9.6 bits per
//! distinct producer, 7 hash probes) and, like every bloom filter, has
//! **zero false negatives by construction**: if `contains` returns
//! `false` the producer is definitely absent from the segment.
//!
//! Hashing is double hashing over two values derived with
//! [`blockdec_chain::hash::splitmix64`] from a fixed seed, so the
//! on-disk bit pattern is fully deterministic and can be re-derived (and
//! checked by fsck) from the segment's rows alone.

use blockdec_chain::hash::splitmix64;
use serde::{Deserialize, Serialize};

/// Bits budgeted per distinct key: `-n ln(p) / ln(2)^2` with p = 1%
/// gives ~9.585; we round the budget to tenths.
const BITS_PER_KEY_TENTHS: usize = 96;

/// Number of hash probes per key (`k = m/n ln 2` at the 1% target).
const PROBES: u32 = 7;

/// A bloom filter over the producer ids of one sealed segment.
///
/// Stored twice: authoritatively inside the segment's index block
/// (covered by the index CRC and checked by fsck) and mirrored in the
/// manifest's [`crate::catalog::SegmentMeta`] for zero-I/O pruning.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProducerFilter {
    /// Hash probes per key.
    pub k: u32,
    /// Filter bits, packed little-endian into 64-bit words.
    pub words: Vec<u64>,
}

impl ProducerFilter {
    /// Build a filter containing exactly the distinct producer ids of
    /// `producers`. Sized at ~9.6 bits per distinct id (minimum one
    /// 64-bit word) for a ~1% false-positive rate.
    pub fn from_producers(producers: &[u32]) -> ProducerFilter {
        let mut distinct: Vec<u32> = producers.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let bits = (distinct.len() * BITS_PER_KEY_TENTHS).div_ceil(10).max(1);
        let nwords = bits.div_ceil(64).max(1);
        let mut filter = ProducerFilter {
            k: PROBES,
            words: vec![0u64; nwords],
        };
        for &p in &distinct {
            filter.insert(p);
        }
        filter
    }

    /// Set the `k` probe bits for `producer`.
    fn insert(&mut self, producer: u32) {
        let m = (self.words.len() * 64) as u64;
        let h1 = splitmix64(u64::from(producer));
        let h2 = splitmix64(h1) | 1;
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Whether `producer` may be present. `false` is definitive (the
    /// producer is not in the segment); `true` may be a false positive.
    pub fn contains(&self, producer: u32) -> bool {
        let m = (self.words.len() * 64) as u64;
        if m == 0 {
            return false;
        }
        let h1 = splitmix64(u64::from(producer));
        let h2 = splitmix64(h1) | 1;
        (0..u64::from(self.k)).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Serialized length in bytes inside a segment index block:
    /// `k` (u32) + word count (u32) + the words themselves.
    pub fn encoded_len(&self) -> usize {
        8 + self.words.len() * 8
    }

    /// Append the on-disk form (`k` u32 LE, word count u32 LE, words
    /// u64 LE) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decode the on-disk form produced by [`ProducerFilter::encode_into`].
    /// Returns the filter and the number of bytes consumed, or `None` on
    /// truncation or an implausible shape.
    pub fn decode_from(data: &[u8]) -> Option<(ProducerFilter, usize)> {
        if data.len() < 8 {
            return None;
        }
        let k = u32::from_le_bytes(data[0..4].try_into().ok()?);
        let nwords = u32::from_le_bytes(data[4..8].try_into().ok()?) as usize;
        if k == 0 || k > 64 || nwords == 0 || data.len() < 8 + nwords * 8 {
            return None;
        }
        let mut words = Vec::with_capacity(nwords);
        for i in 0..nwords {
            let at = 8 + i * 8;
            words.push(u64::from_le_bytes(data[at..at + 8].try_into().ok()?));
        }
        Some((ProducerFilter { k, words }, 8 + nwords * 8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_a_false_negative() {
        let producers: Vec<u32> = (0..500).map(|i| i * 3 + 1).collect();
        let filter = ProducerFilter::from_producers(&producers);
        for &p in &producers {
            assert!(filter.contains(p), "false negative for producer {p}");
        }
    }

    #[test]
    fn false_positive_rate_is_near_target() {
        let members: Vec<u32> = (0..1000).collect();
        let filter = ProducerFilter::from_producers(&members);
        let trials = 20_000u32;
        let fp = (0..trials)
            .map(|i| 10_000 + i)
            .filter(|&p| filter.contains(p))
            .count();
        let rate = fp as f64 / trials as f64;
        assert!(
            rate < 0.05,
            "false-positive rate {rate} far above 1% target"
        );
    }

    #[test]
    fn empty_and_tiny_inputs_are_well_formed() {
        let empty = ProducerFilter::from_producers(&[]);
        assert_eq!(empty.words.len(), 1);
        assert!(!empty.contains(0));
        let one = ProducerFilter::from_producers(&[42]);
        assert!(one.contains(42));
    }

    #[test]
    fn round_trips_through_bytes() {
        let filter = ProducerFilter::from_producers(&[1, 2, 3, 500, 70_000]);
        let mut buf = Vec::new();
        filter.encode_into(&mut buf);
        assert_eq!(buf.len(), filter.encoded_len());
        let (back, used) = ProducerFilter::decode_from(&buf).expect("decodes");
        assert_eq!(used, buf.len());
        assert_eq!(back, filter);
    }

    #[test]
    fn decode_rejects_truncation() {
        let filter = ProducerFilter::from_producers(&[7]);
        let mut buf = Vec::new();
        filter.encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(ProducerFilter::decode_from(&buf[..cut]).is_none());
        }
    }

    #[test]
    fn deterministic_across_input_order() {
        let a = ProducerFilter::from_producers(&[5, 1, 9, 1, 5]);
        let b = ProducerFilter::from_producers(&[9, 5, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn bit_pattern_is_pinned() {
        // The words are on disk (docs/FORMAT.md's worked hexdump shows
        // the first). A segment's footer CRC cannot pin them: the index
        // CRC that follows the blooms cancels their effect on the
        // whole-file CRC.
        let words = |producers: &[u32]| ProducerFilter::from_producers(producers).words;
        assert_eq!(words(&[0, 1]), [0xb800_8801_5400_2202]);
        assert_eq!(
            words(&[0, 1, 2, 3, 7, 100, 65_535, u32::MAX]),
            [0x2115_8044_dc22_3818, 0x9ce4_2843_54a8_c213]
        );
    }
}
