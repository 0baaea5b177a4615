//! CRC32 (IEEE 802.3 polynomial) for page integrity.
//!
//! Slicing-by-8: eight 256-entry tables, built at compile time from the
//! polynomial, fold eight input bytes per step (two little-endian `u32`
//! loads, eight lookups) and the tail byte by byte. The values are the
//! standard IEEE CRC-32, so the on-disk format does not depend on the
//! method: a table-per-byte CRC verifies these checksums and the
//! reverse. No dependency, no `unsafe`, no CPU detection; deterministic
//! across platforms.
//!
//! Every page decode (cached or not) and every page and segment write
//! runs this, so it is a per-byte cost of every scan. Over 18 MiB (about
//! the simulated Ethereum-year store) on a 2-vCPU Xeon guest, slicing-by-8
//! takes 17–20 ms where the byte-at-a-time table took 68–76 ms.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC state after
/// byte `b` is followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Fold `data` into the (pre-inverted) CRC `state`.
fn update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    !update(0xFFFF_FFFF, data)
}

/// Incremental CRC32 hasher for streaming writes.
#[derive(Clone, Debug)]
pub struct Crc32Hasher {
    state: u32,
}

impl Default for Crc32Hasher {
    fn default() -> Self {
        Crc32Hasher { state: 0xFFFF_FFFF }
    }
}

impl Crc32Hasher {
    /// Fresh hasher.
    pub fn new() -> Crc32Hasher {
        Crc32Hasher::default()
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finish and return the checksum.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32 straight from the polynomial: no table, so
    /// it checks the tables as well as the slicing.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// 4 KiB of seeded bytes.
    fn seeded_buffer() -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn matches_the_bitwise_reference_at_every_length_and_offset() {
        let buf = seeded_buffer();
        for start in 0..8 {
            for len in 0..=72 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    reference_crc32(data),
                    "start {start}, len {len}"
                );
            }
        }
        assert_eq!(crc32(&buf), reference_crc32(&buf));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello columnar world, this is a page of data";
        for split in 0..=data.len() {
            let mut h = Crc32Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let before = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }

    #[test]
    fn detects_transposition() {
        let a = crc32(b"ab");
        let b = crc32(b"ba");
        assert_ne!(a, b);
    }
}
