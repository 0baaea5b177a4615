//! Embedded mining-pool tag database.
//!
//! Attribution of a block to a named pool works the way public explorers
//! (and the BigQuery-era analyses the paper builds on) do it:
//!
//! * **Bitcoin** — pools stamp a human-readable marker into the coinbase
//!   script (`/F2Pool/`, `/BTC.COM/`, …); we match known markers as
//!   substrings of the tag.
//! * **Ethereum** — pools are identified by their well-known payout
//!   address, with the `extra_data` string as a secondary signal.
//!
//! The built-in tables cover the pools that controlled the overwhelming
//! majority of 2019 hash power on both chains. Unmatched blocks fall back
//! to their payout address (see [`crate::attribution`]), exactly as the
//! paper's per-address producer counting does.

use crate::params::ChainKind;
use std::borrow::Cow;
use std::collections::HashMap;

/// A single pool-identification rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolTag {
    /// Canonical pool name reported in results.
    pub pool: &'static str,
    /// Substring looked for in the coinbase tag / extra_data.
    pub marker: &'static str,
}

/// Known Bitcoin coinbase-script markers (2019 era).
pub static BITCOIN_TAGS: &[PoolTag] = &[
    PoolTag {
        pool: "BTC.com",
        marker: "/BTC.COM/",
    },
    PoolTag {
        pool: "BTC.com",
        marker: "btccom",
    },
    PoolTag {
        pool: "AntPool",
        marker: "/AntPool/",
    },
    PoolTag {
        pool: "F2Pool",
        marker: "/F2Pool/",
    },
    PoolTag {
        pool: "F2Pool",
        marker: "🐟",
    },
    PoolTag {
        pool: "Poolin",
        marker: "/poolin.com/",
    },
    PoolTag {
        pool: "SlushPool",
        marker: "/slush/",
    },
    PoolTag {
        pool: "ViaBTC",
        marker: "/ViaBTC/",
    },
    PoolTag {
        pool: "BTC.TOP",
        marker: "/BTC.TOP/",
    },
    PoolTag {
        pool: "Huobi.pool",
        marker: "/HuoBi/",
    },
    PoolTag {
        pool: "Huobi.pool",
        marker: "/Huobi/",
    },
    PoolTag {
        pool: "1THash",
        marker: "/1THash",
    },
    PoolTag {
        pool: "BitFury",
        marker: "/Bitfury/",
    },
    PoolTag {
        pool: "Bitcoin.com",
        marker: "/pool.bitcoin.com/",
    },
    PoolTag {
        pool: "BitClub",
        marker: "/BitClub Network/",
    },
    PoolTag {
        pool: "Bixin",
        marker: "/Bixin/",
    },
    PoolTag {
        pool: "SpiderPool",
        marker: "/SpiderPool/",
    },
    PoolTag {
        pool: "NovaBlock",
        marker: "/NovaBlock",
    },
    PoolTag {
        pool: "OKExPool",
        marker: "/okpool.top/",
    },
    PoolTag {
        pool: "Bitdeer",
        marker: "/Bitdeer/",
    },
    PoolTag {
        pool: "58COIN",
        marker: "/58coin",
    },
    PoolTag {
        pool: "WAYI.CN",
        marker: "/WAYI.CN/",
    },
];

/// Known Ethereum pool `extra_data` markers (2019 era).
pub static ETHEREUM_TAGS: &[PoolTag] = &[
    PoolTag {
        pool: "Ethermine",
        marker: "ethermine",
    },
    PoolTag {
        pool: "SparkPool",
        marker: "sparkpool",
    },
    PoolTag {
        pool: "F2Pool",
        marker: "f2pool",
    },
    PoolTag {
        pool: "Nanopool",
        marker: "nanopool",
    },
    PoolTag {
        pool: "MiningPoolHub",
        marker: "miningpoolhub",
    },
    PoolTag {
        pool: "zhizhu.top",
        marker: "zhizhu",
    },
    PoolTag {
        pool: "Hiveon",
        marker: "hiveon",
    },
    PoolTag {
        pool: "DwarfPool",
        marker: "dwarfpool",
    },
    PoolTag {
        pool: "firepool",
        marker: "firepool",
    },
    PoolTag {
        pool: "MiningExpress",
        marker: "mining-express",
    },
    PoolTag {
        pool: "UUPool",
        marker: "uupool",
    },
];

/// Known Ethereum pool payout addresses (2019 era, lowercase hex).
pub static ETHEREUM_ADDRESSES: &[(&str, &str)] = &[
    ("0xea674fdde714fd979de3edf0f56aa9716b898ec8", "Ethermine"),
    ("0x5a0b54d5dc17e0aadc383d2db43b0a0d3e029c4c", "SparkPool"),
    ("0x829bd824b016326a401d083b33d092293333a830", "F2Pool"),
    ("0x52bc44d5378309ee2abf1539bf71de1b7d7be3b5", "Nanopool"),
    (
        "0xb2930b35844a230f00e51431acae96fe543a0347",
        "MiningPoolHub",
    ),
    ("0x04668ec2f57cc15c381b461b9fedab5d451c8f7f", "zhizhu.top"),
    ("0x1ad91ee08f21be3de0ba2ba6918e714da6b45836", "Hiveon"),
    ("0x2a65aca4d5fc5b5c859090a6c34d164135398226", "DwarfPool"),
    ("0x35f61dfb08ada13eba64bf156b80df3d5b3a738d", "firepool"),
    ("0xd224ca0c819e8e97ba0136b3b95ceff503b79f53", "UUPool"),
];

/// Pool tag database with substring markers and known addresses.
#[derive(Clone, Debug, Default)]
pub struct PoolTagDb {
    bitcoin_markers: Vec<(String, String)>,
    ethereum_markers: Vec<(String, String)>,
    ethereum_addresses: HashMap<String, String>,
}

impl PoolTagDb {
    /// The built-in 2019 table for both chains.
    pub fn builtin() -> PoolTagDb {
        let mut db = PoolTagDb::default();
        for t in BITCOIN_TAGS {
            db.bitcoin_markers
                .push((t.marker.to_string(), t.pool.to_string()));
        }
        for t in ETHEREUM_TAGS {
            db.ethereum_markers
                .push((t.marker.to_string(), t.pool.to_string()));
        }
        for (addr, pool) in ETHEREUM_ADDRESSES {
            db.ethereum_addresses
                .insert((*addr).to_string(), (*pool).to_string());
        }
        db
    }

    /// An empty database (every block falls back to address attribution).
    pub fn empty() -> PoolTagDb {
        PoolTagDb::default()
    }

    /// Add a custom marker rule.
    pub fn add_marker(&mut self, chain: ChainKind, marker: &str, pool: &str) {
        let list = match chain {
            ChainKind::Bitcoin => &mut self.bitcoin_markers,
            ChainKind::Ethereum => &mut self.ethereum_markers,
        };
        list.push((marker.to_string(), pool.to_string()));
    }

    /// Add a known payout address for Ethereum-style attribution.
    pub fn add_address(&mut self, address: &str, pool: &str) {
        self.ethereum_addresses
            .insert(address.to_ascii_lowercase(), pool.to_string());
    }

    /// Match a coinbase tag / extra_data string to a pool name.
    ///
    /// Bitcoin markers are matched case-sensitively (they are exact script
    /// conventions); Ethereum extra_data is matched case-insensitively.
    pub fn match_tag(&self, chain: ChainKind, tag: &str) -> Option<&str> {
        match chain {
            ChainKind::Bitcoin => self
                .bitcoin_markers
                .iter()
                .find(|(marker, _)| tag.contains(marker.as_str()))
                .map(|(_, pool)| pool.as_str()),
            ChainKind::Ethereum => {
                let lower = ascii_lowercase(tag);
                self.ethereum_markers
                    .iter()
                    .find(|(marker, _)| lower.contains(marker.as_str()))
                    .map(|(_, pool)| pool.as_str())
            }
        }
    }

    /// Match a payout address to a pool name (Ethereum only; Bitcoin pools
    /// rotate payout addresses, so address matching is not reliable there).
    pub fn match_address(&self, chain: ChainKind, address: &str) -> Option<&str> {
        if chain != ChainKind::Ethereum {
            return None;
        }
        self.ethereum_addresses
            .get(ascii_lowercase(address).as_ref())
            .map(String::as_str)
    }

    /// Number of marker rules for a chain.
    pub fn marker_count(&self, chain: ChainKind) -> usize {
        match chain {
            ChainKind::Bitcoin => self.bitcoin_markers.len(),
            ChainKind::Ethereum => self.ethereum_markers.len(),
        }
    }
}

/// `s` with its ASCII letters lowercased, borrowed unless it holds an
/// uppercase ASCII byte: the tag and address lookups allocate only for
/// input that needs lowering.
fn ascii_lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_matches_bitcoin_markers() {
        let db = PoolTagDb::builtin();
        assert_eq!(
            db.match_tag(ChainKind::Bitcoin, "\u{3}/F2Pool/mined by user"),
            Some("F2Pool")
        );
        assert_eq!(
            db.match_tag(ChainKind::Bitcoin, "xx/BTC.COM/yy"),
            Some("BTC.com")
        );
        assert_eq!(
            db.match_tag(ChainKind::Bitcoin, "/slush/"),
            Some("SlushPool")
        );
        assert_eq!(db.match_tag(ChainKind::Bitcoin, "/nomatch/"), None);
    }

    #[test]
    fn bitcoin_markers_are_case_sensitive() {
        let db = PoolTagDb::builtin();
        assert_eq!(db.match_tag(ChainKind::Bitcoin, "/f2pool/"), None);
    }

    #[test]
    fn ethereum_extradata_is_case_insensitive() {
        let db = PoolTagDb::builtin();
        assert_eq!(
            db.match_tag(ChainKind::Ethereum, "SparkPool-ETH-CN-HZ2"),
            Some("SparkPool")
        );
        assert_eq!(
            db.match_tag(ChainKind::Ethereum, "ethermine-eu1"),
            Some("Ethermine")
        );
    }

    #[test]
    fn ethereum_address_lookup() {
        let db = PoolTagDb::builtin();
        assert_eq!(
            db.match_address(
                ChainKind::Ethereum,
                "0xEA674FDDE714FD979DE3EDF0F56AA9716B898EC8"
            ),
            Some("Ethermine")
        );
        assert_eq!(
            db.match_address(
                ChainKind::Ethereum,
                "0x0000000000000000000000000000000000000000"
            ),
            None
        );
        // Bitcoin address matching is deliberately unsupported.
        assert_eq!(
            db.match_address(ChainKind::Bitcoin, "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"),
            None
        );
    }

    #[test]
    fn custom_rules() {
        let mut db = PoolTagDb::empty();
        assert_eq!(db.match_tag(ChainKind::Bitcoin, "/MyPool/"), None);
        db.add_marker(ChainKind::Bitcoin, "/MyPool/", "MyPool");
        assert_eq!(
            db.match_tag(ChainKind::Bitcoin, "xx/MyPool/xx"),
            Some("MyPool")
        );
        db.add_address("0xABC0000000000000000000000000000000000def", "MyEthPool");
        assert_eq!(
            db.match_address(
                ChainKind::Ethereum,
                "0xabc0000000000000000000000000000000000def"
            ),
            Some("MyEthPool")
        );
    }

    #[test]
    fn builtin_covers_major_2019_pools() {
        let db = PoolTagDb::builtin();
        assert!(db.marker_count(ChainKind::Bitcoin) >= 15);
        assert!(db.marker_count(ChainKind::Ethereum) >= 8);
    }

    #[test]
    fn first_matching_marker_wins() {
        let mut db = PoolTagDb::empty();
        db.add_marker(ChainKind::Bitcoin, "/A/", "First");
        db.add_marker(ChainKind::Bitcoin, "/A/B/", "Second");
        assert_eq!(db.match_tag(ChainKind::Bitcoin, "/A/B/"), Some("First"));
    }
}
