//! The store's row model: one attribution row per block credit.

/// Credit denominator: weights are stored in thousandths of a block.
pub const CREDIT_SCALE: u32 = 1000;

/// One attribution row. An ordinary block is one row with
/// `credit_millis == 1000`; a multi-coinbase block is one row per payout
/// address (each with full credit under the paper's attribution), and a
/// fractionally-attributed block is rows whose credits sum to ~1000.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowRecord {
    /// Block height.
    pub height: u64,
    /// Block timestamp (seconds).
    pub timestamp: i64,
    /// Producer id in the *store's* dictionary.
    pub producer: u32,
    /// Credit in thousandths of a block.
    pub credit_millis: u32,
    /// Transactions in the block (0 when not tracked).
    pub tx_count: u32,
    /// Serialized block size (0 when not tracked).
    pub size_bytes: u32,
    /// Difficulty (0 when not tracked).
    pub difficulty: u64,
}

impl RowRecord {
    /// The credit as a float block weight.
    pub fn credit(&self) -> f64 {
        millis_to_weight(self.credit_millis)
    }
}

/// Convert credit millis to a float block weight: the one conversion
/// every scan output applies.
pub(crate) fn millis_to_weight(millis: u32) -> f64 {
    f64::from(millis) / f64::from(CREDIT_SCALE)
}

/// Convert a float weight to credit millis, saturating and rounding.
pub fn weight_to_millis(weight: f64) -> u32 {
    (weight * f64::from(CREDIT_SCALE))
        .round()
        .clamp(0.0, f64::from(u32::MAX)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_conversion() {
        assert_eq!(weight_to_millis(1.0), 1000);
        assert_eq!(weight_to_millis(0.5), 500);
        assert_eq!(weight_to_millis(1.0 / 3.0), 333);
        assert_eq!(weight_to_millis(0.0), 0);
        assert_eq!(weight_to_millis(-1.0), 0);
    }
}
