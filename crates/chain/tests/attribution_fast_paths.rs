//! Attribution's borrowing lookups against allocating references.
//!
//! `PoolTagDb::match_tag` (Ethereum) and `PoolTagDb::match_address`
//! lowercase their input only when it holds an ASCII uppercase byte, and
//! `Attributor` borrows every name it looks up. The properties here
//! check both lookups against the plain "`to_ascii_lowercase()`, then the
//! first `contains` (or `get`)" rule on mixed-case and non-ASCII input,
//! and the attributor against a copy of its allocating body on the
//! simulated two-week chains and on hand-built blocks.

use blockdec_chain::pooltags::{
    PoolTag, PoolTagDb, BITCOIN_TAGS, ETHEREUM_ADDRESSES, ETHEREUM_TAGS,
};
use blockdec_chain::{
    Address, AttributedBlock, AttributionMode, Attributor, Block, BlockColumns, ChainKind, Credit,
    ProducerId, ProducerRegistry, Timestamp,
};
use blockdec_sim::Scenario;
use proptest::prelude::*;
use std::collections::HashMap;

const MODES: [AttributionMode; 3] = [
    AttributionMode::PerAddress,
    AttributionMode::FirstAddress,
    AttributionMode::Fractional,
];

/// A tag database next to the rule lists it was built from, so a
/// reference lookup can replay the rules.
struct Rules {
    db: PoolTagDb,
    bitcoin: Vec<(String, String)>,
    ethereum: Vec<(String, String)>,
    addresses: HashMap<String, String>,
}

impl Rules {
    fn builtin() -> Rules {
        let pairs = |tags: &[PoolTag]| {
            tags.iter()
                .map(|t| (t.marker.to_string(), t.pool.to_string()))
                .collect()
        };
        Rules {
            db: PoolTagDb::builtin(),
            bitcoin: pairs(BITCOIN_TAGS),
            ethereum: pairs(ETHEREUM_TAGS),
            addresses: ETHEREUM_ADDRESSES
                .iter()
                .map(|(a, p)| (a.to_string(), p.to_string()))
                .collect(),
        }
    }

    fn empty() -> Rules {
        Rules {
            db: PoolTagDb::empty(),
            bitcoin: Vec::new(),
            ethereum: Vec::new(),
            addresses: HashMap::new(),
        }
    }

    fn add_marker(&mut self, chain: ChainKind, marker: &str, pool: &str) {
        self.db.add_marker(chain, marker, pool);
        let list = match chain {
            ChainKind::Bitcoin => &mut self.bitcoin,
            ChainKind::Ethereum => &mut self.ethereum,
        };
        list.push((marker.to_string(), pool.to_string()));
    }

    fn add_address(&mut self, address: &str, pool: &str) {
        self.db.add_address(address, pool);
        self.addresses
            .insert(address.to_ascii_lowercase(), pool.to_string());
    }

    /// The allocating tag rule: Bitcoin markers as given, Ethereum
    /// extra_data lowercased, then the first marker it contains.
    fn reference_tag(&self, chain: ChainKind, tag: &str) -> Option<&str> {
        let (rules, tag) = match chain {
            ChainKind::Bitcoin => (&self.bitcoin, tag.to_string()),
            ChainKind::Ethereum => (&self.ethereum, tag.to_ascii_lowercase()),
        };
        rules
            .iter()
            .find(|(marker, _)| tag.contains(marker.as_str()))
            .map(|(_, pool)| pool.as_str())
    }

    /// The allocating address rule: Ethereum only, lowercased, looked up.
    fn reference_address(&self, chain: ChainKind, address: &str) -> Option<&str> {
        if chain != ChainKind::Ethereum {
            return None;
        }
        self.addresses
            .get(&address.to_ascii_lowercase())
            .map(String::as_str)
    }
}

/// Every database the lookup properties run against: the built-in one;
/// the built-in one plus uppercase Ethereum markers (which can never
/// match), Bitcoin markers that differ from built-in ones only in case,
/// an uppercase custom address and, last, an empty marker on each chain
/// (which matches every tag no earlier marker matched); and an empty
/// database holding only an empty marker.
fn databases() -> Vec<Rules> {
    let mut custom = Rules::builtin();
    custom.add_marker(ChainKind::Ethereum, "SparkPool", "UpperSpark");
    custom.add_marker(ChainKind::Ethereum, "MyPool", "UpperMine");
    custom.add_marker(ChainKind::Bitcoin, "/f2pool/", "LowerF2");
    custom.add_marker(ChainKind::Bitcoin, "/ANTPOOL/", "UpperAnt");
    custom.add_marker(ChainKind::Bitcoin, "/MyPool/", "MyPool");
    custom.add_marker(ChainKind::Ethereum, "mypool", "MyEthPool");
    custom.add_address("0xABC0000000000000000000000000000000000DEF", "MyEthPool");
    custom.add_address("0xk000000000000000000000000000000000000def", "KelvinPool");
    custom.add_marker(ChainKind::Bitcoin, "", "Anyone");
    custom.add_marker(ChainKind::Ethereum, "", "Anyone");
    let mut only_empty = Rules::empty();
    only_empty.add_marker(ChainKind::Ethereum, "", "Anyone");
    only_empty.add_marker(ChainKind::Bitcoin, "", "Anyone");
    vec![Rules::builtin(), custom, only_empty]
}

/// Pieces tags and addresses are assembled from: markers in several
/// cases, known and custom addresses, non-ASCII letters (`İ` lowercases
/// to `i̇` only under Unicode rules; `K` is the Kelvin sign, whose
/// Unicode lowercase is the ASCII `k`, so `sparKpool` names SparkPool
/// only to a Unicode lowercasing), and filler.
const FRAGMENTS: &[&str] = &[
    "/F2Pool/",
    "/BTC.COM/",
    "btccom",
    "/AntPool/",
    "/poolin.com/",
    "/1THash",
    "/MyPool/",
    "🐟",
    "İ",
    "K",
    "ß",
    "sparkpool",
    "sparKpool",
    "ethermine",
    "ETHERMINE-eu1",
    "nanopool",
    "mining-express",
    "mypool",
    "0xea674fdde714fd979de3edf0f56aa9716b898ec8",
    "0xABC0000000000000000000000000000000000DEF",
    "0x0000000000000000000000000000000000000000",
    "-",
    "/",
    " ",
    "x",
    "Z9",
];

/// Apply a case pattern to the ASCII letters of `s`: keep, upper, lower,
/// or flip each letter by a bit of `bits`.
fn recase(s: &str, how: u8, bits: u64) -> String {
    s.chars()
        .enumerate()
        .map(|(i, c)| match how % 4 {
            0 => c,
            1 => c.to_ascii_uppercase(),
            2 => c.to_ascii_lowercase(),
            _ if bits >> (i % 64) & 1 == 1 => c.to_ascii_uppercase(),
            _ => c.to_ascii_lowercase(),
        })
        .collect()
}

/// Strings of up to five recased fragments.
fn mixed_case_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..FRAGMENTS.len(), 0u8..4, any::<u64>()), 0..6).prop_map(
        |parts| {
            parts
                .into_iter()
                .map(|(i, how, bits)| recase(FRAGMENTS[i], how, bits))
                .collect()
        },
    )
}

/// One known or custom address, recased, sometimes with a non-ASCII or
/// ASCII letter spliced in or its `k`s turned into Kelvin signs.
fn mixed_case_address() -> impl Strategy<Value = String> {
    let known: Vec<&str> = ETHEREUM_ADDRESSES
        .iter()
        .map(|(a, _)| *a)
        .chain([
            "0xabc0000000000000000000000000000000000def",
            "0xk000000000000000000000000000000000000def",
            "0x0000000000000000000000000000000000000000",
        ])
        .collect();
    (0usize..known.len(), 0u8..4, any::<u64>(), 0usize..6).prop_map(move |(i, how, bits, add)| {
        let mut address = recase(known[i], how, bits);
        match add {
            0 => address.push('İ'),
            1 => address.insert(2, 'K'),
            2 => address.push('A'),
            3 => address = address.replace('k', "K"),
            _ => {}
        }
        address
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn match_tag_equals_the_allocating_rule(tag in mixed_case_text()) {
        for rules in databases() {
            for chain in [ChainKind::Bitcoin, ChainKind::Ethereum] {
                prop_assert_eq!(
                    rules.db.match_tag(chain, &tag),
                    rules.reference_tag(chain, &tag),
                    "{:?} {:?}", chain, tag
                );
            }
        }
    }

    #[test]
    fn match_address_equals_the_allocating_rule(
        address in mixed_case_address(),
        text in mixed_case_text(),
    ) {
        for rules in databases() {
            for chain in [ChainKind::Bitcoin, ChainKind::Ethereum] {
                for input in [address.as_str(), text.as_str()] {
                    prop_assert_eq!(
                        rules.db.match_address(chain, input),
                        rules.reference_address(chain, input),
                        "{:?} {:?}", chain, input
                    );
                }
            }
        }
    }
}

/// A copy of the attributor body that collected payout addresses and
/// pool names into owned strings and ran both pool lookups on every
/// block.
struct ReferenceAttributor {
    chain: ChainKind,
    mode: AttributionMode,
    tags: PoolTagDb,
    registry: ProducerRegistry,
    tag_hits: u64,
    address_hits: u64,
    fallbacks: u64,
}

impl ReferenceAttributor {
    fn new(chain: ChainKind, mode: AttributionMode) -> ReferenceAttributor {
        ReferenceAttributor {
            chain,
            mode,
            tags: PoolTagDb::builtin(),
            registry: ProducerRegistry::new(),
            tag_hits: 0,
            address_hits: 0,
            fallbacks: 0,
        }
    }

    fn attribute(&mut self, block: &Block) -> AttributedBlock {
        let mut credits = Vec::new();
        let addresses: Vec<String> = block
            .coinbase
            .payout_addresses
            .iter()
            .map(|a| a.as_str().to_string())
            .collect();
        let tag_pool: Option<String> = block
            .coinbase
            .tag
            .as_deref()
            .and_then(|t| self.tags.match_tag(self.chain, t))
            .map(str::to_string);
        let addr_pool: Option<String> = addresses
            .first()
            .and_then(|a| self.tags.match_address(self.chain, a))
            .map(str::to_string);
        if tag_pool.is_some() {
            self.tag_hits += 1;
        } else if addr_pool.is_some() {
            self.address_hits += 1;
        }
        let mut credit =
            |producer: ProducerId, weight: f64| credits.push(Credit { producer, weight });
        match (tag_pool.or(addr_pool), self.mode) {
            (Some(pool), _) => credit(self.registry.intern(&pool), 1.0),
            (None, AttributionMode::FirstAddress) => {
                self.fallbacks += 1;
                credit(self.registry.intern(&addresses[0]), 1.0);
            }
            (None, AttributionMode::PerAddress) => {
                self.fallbacks += 1;
                for a in &addresses {
                    credit(self.registry.intern(a), 1.0);
                }
            }
            (None, AttributionMode::Fractional) => {
                self.fallbacks += 1;
                let w = 1.0 / addresses.len() as f64;
                for a in &addresses {
                    credit(self.registry.intern(a), w);
                }
            }
        }
        AttributedBlock {
            height: block.height,
            timestamp: block.timestamp,
            credits,
        }
    }
}

/// Attribute `blocks` in `mode` with the attributor (both entry points)
/// and with the reference, and require equal credits, registries and
/// statistics.
fn assert_matches_reference(chain: ChainKind, mode: AttributionMode, blocks: &[Block]) {
    let mut reference = ReferenceAttributor::new(chain, mode);
    let want: Vec<AttributedBlock> = blocks.iter().map(|b| reference.attribute(b)).collect();
    let want_names = reference.registry.to_name_list();
    let want_stats = (
        reference.tag_hits,
        reference.address_hits,
        reference.fallbacks,
    );

    let mut attributor = Attributor::new(chain, mode);
    let got = attributor.attribute_all(blocks);
    assert!(got == want, "{chain:?} {mode:?}: credits differ");
    assert_eq!(
        attributor.registry().to_name_list(),
        want_names,
        "{chain:?} {mode:?}"
    );
    assert_eq!(attributor.stats(), want_stats, "{chain:?} {mode:?}");

    let mut columnar = Attributor::new(chain, mode);
    let mut cols = BlockColumns::new();
    for b in blocks {
        columnar.attribute_into(b, &mut cols);
    }
    assert!(
        cols.to_blocks() == want,
        "{chain:?} {mode:?}: columns differ"
    );
    assert_eq!(
        columnar.registry().to_name_list(),
        want_names,
        "{chain:?} {mode:?}"
    );
    assert_eq!(columnar.stats(), want_stats, "{chain:?} {mode:?}");
}

#[test]
fn attributor_matches_the_allocating_body_on_two_week_scenarios() {
    for scenario in [Scenario::bitcoin_2019(), Scenario::ethereum_2019()] {
        let scenario = scenario.truncated(14);
        let blocks: Vec<Block> = scenario.iter().collect();
        assert!(blocks.len() > 1_000, "{:?}", scenario.chain);
        for mode in MODES {
            assert_matches_reference(scenario.chain, mode, &blocks);
        }
    }
}

/// An Ethereum address kept in the case given: `Address::parse`
/// lowercases, but a deserialized one is taken as it stands.
fn verbatim_ethereum_address(s: &str) -> Address {
    serde_json::from_str(&format!("\"{s}\"")).unwrap()
}

#[test]
fn attributor_matches_the_allocating_body_on_hand_built_blocks() {
    let t = Timestamp(1_546_300_800);
    let btc = |height: u64, tag: Option<&str>, n: u64| {
        let mut b = Block::builder(ChainKind::Bitcoin, height).timestamp(t);
        for i in 0..n {
            b = b.payout(Address::synthesize(ChainKind::Bitcoin, height * 1000 + i));
        }
        if let Some(tag) = tag {
            b = b.tag(tag);
        }
        b.build().unwrap()
    };
    let eth = |height: u64, tag: Option<&str>, addresses: Vec<Address>| {
        let mut b = Block::builder(ChainKind::Ethereum, height)
            .timestamp(t)
            .payouts(addresses);
        if let Some(tag) = tag {
            b = b.tag(tag);
        }
        b.build().unwrap()
    };
    let ethermine = Address::parse(
        ChainKind::Ethereum,
        "0xEA674FDDE714FD979DE3EDF0F56AA9716B898EC8",
    )
    .unwrap();
    let upper_ethermine = verbatim_ethereum_address("0xEA674FDDE714FD979DE3EDF0F56AA9716B898EC8");
    let unknown = |seed| Address::synthesize(ChainKind::Ethereum, seed);
    let many = |n: u64| (0..n).map(unknown).collect::<Vec<_>>();

    let bitcoin = vec![
        btc(1, Some("/F2Pool/"), 1),
        btc(2, Some("/f2pool/"), 1),
        btc(3, Some("/UnknownPool/"), 1),
        btc(4, None, 80),
        btc(5, Some("/AntPool/"), 80),
        btc(6, Some("no marker here 🐟"), 2),
        btc(7, Some("İ/ViaBTC/"), 1),
        btc(8, None, 3),
        btc(9, Some("/UnknownPool/"), 80),
        btc(10, Some("/F2Pool/"), 1),
    ];
    let ethereum = vec![
        eth(1, None, vec![ethermine.clone()]),
        eth(2, Some("SparkPool-ETH-CN-HZ2"), vec![ethermine.clone()]),
        eth(3, Some("unknown-extra"), vec![ethermine.clone()]),
        eth(4, Some("unknown-extra"), vec![upper_ethermine.clone()]),
        eth(5, None, vec![upper_ethermine]),
        eth(6, Some("nobody"), many(80)),
        eth(7, None, {
            let mut v = vec![unknown(1_000)];
            v.push(ethermine.clone());
            v
        }),
        eth(8, Some("İnanopool"), vec![unknown(2_000)]),
        eth(9, Some("Ethermine-EU1"), many(80)),
        eth(10, None, many(3)),
        eth(11, Some("🐟"), vec![unknown(3)]),
    ];
    for mode in MODES {
        assert_matches_reference(ChainKind::Bitcoin, mode, &bitcoin);
        assert_matches_reference(ChainKind::Ethereum, mode, &ethereum);
    }
}
