//! The block-stream generator: turns a [`Scenario`] into blocks.
//!
//! [`BlockGenerator`] is a lazy iterator over [`Block`]s — the full-year
//! Ethereum stream is 2.2M blocks, so callers that only need attribution
//! results use [`Scenario::generate`], which pipes the stream through an
//! [`Attributor`] and keeps only the compact [`AttributedBlock`]s.

use crate::arrival::{ArrivalConfig, ArrivalProcess};
use crate::difficulty::DifficultyState;
use crate::events::EventSchedule;
use crate::population::{MinerPopulation, MinerRef, PoolState, TailState};
use crate::rng::SimRng;
use crate::scenario::Scenario;
use blockdec_chain::hash::splitmix64;
use blockdec_chain::{
    Address, AttributedBlock, Attributor, Block, BlockColumns, BlockHash, ChainKind,
    ProducerRegistry, Timestamp,
};
use std::collections::BTreeMap;

/// Seed domain for synthesized tail-miner addresses.
const TAIL_ADDR_DOMAIN: u64 = 0x7a11_0000_0000_0000;
/// Seed domain for multi-coinbase anomaly payout addresses.
const ANOMALY_ADDR_DOMAIN: u64 = 0xacab_0000_0000_0000;

/// Iterator producing a scenario's blocks in height order.
pub struct BlockGenerator {
    chain: ChainKind,
    hash_domain: u64,
    rng_blocks: SimRng,
    rng_drift: SimRng,
    rng_meta: SimRng,
    population: MinerPopulation,
    arrival: ArrivalProcess,
    schedule: EventSchedule,
    start_time: i64,
    end_time: i64,
    current_day: i64,
    blocks_today: u32,
    pending_multi: Vec<(u32, u32)>,
    next_height: u64,
    parent: BlockHash,
    produced: u64,
    limit: Option<u64>,
    pool_addresses: Vec<Address>,
}

impl BlockGenerator {
    fn new(scenario: &Scenario) -> BlockGenerator {
        let spec = scenario.spec();
        let mut root = SimRng::new(scenario.seed);
        let rng_blocks = root.fork(1);
        let rng_drift = root.fork(2);
        let rng_meta = root.fork(3);

        let pools: Vec<PoolState> = scenario
            .pools
            .iter()
            .enumerate()
            .map(|(i, p)| PoolState {
                name: p.name.clone(),
                tag: p.tag.clone(),
                address_seed: splitmix64(scenario.seed ^ (i as u64 + 1)),
                schedule: p.schedule.clone(),
                drift: crate::hashrate::DriftState::new(p.drift_sigma, p.drift_reversion),
            })
            .collect();
        let pool_addresses: Vec<Address> = scenario
            .pools
            .iter()
            .zip(&pools)
            .map(|(cfg, state)| match &cfg.address {
                Some(a) => Address::parse(scenario.chain, a).expect("preset addresses are valid"), // blockdec-lint: allow(panic) — preset addresses are fixture constants; failing fast beats mis-attributing
                None => Address::synthesize(scenario.chain, state.address_seed),
            })
            .collect();
        let population = MinerPopulation::new(
            pools,
            TailState {
                miners: scenario.tail.miners,
                alpha: scenario.tail.alpha,
                schedule: scenario.tail.schedule.clone(),
            },
        );

        let difficulty = DifficultyState::new(
            spec.retarget,
            spec.target_block_interval_secs,
            spec.target_block_interval_secs,
            scenario.start_time,
        );
        let arrival = ArrivalProcess::new(
            ArrivalConfig {
                chain: scenario.chain,
                base_hashrate: 1.0,
                growth: scenario.hashrate_growth,
                // Growth is defined per 365 days so truncated scenarios
                // keep the same early-year dynamics as the full year.
                days: 365.0,
                timestamp_jitter: scenario.timestamp_jitter,
            },
            difficulty,
            scenario.start_time,
        );

        BlockGenerator {
            chain: scenario.chain,
            hash_domain: scenario.chain.id() ^ splitmix64(scenario.seed),
            rng_blocks,
            rng_drift,
            rng_meta,
            population,
            arrival,
            schedule: EventSchedule::new(&scenario.events),
            start_time: scenario.start_time,
            end_time: scenario.start_time + i64::from(scenario.days) * 86_400,
            current_day: -1,
            blocks_today: 0,
            pending_multi: Vec::new(),
            next_height: spec.first_block_2019,
            parent: BlockHash::ZERO,
            produced: 0,
            limit: scenario.limit_blocks,
            pool_addresses,
        }
    }

    fn enter_day(&mut self, day: i64) {
        // Step drift once per elapsed day so long gaps stay consistent.
        let from = self.current_day.max(-1);
        for _ in from..day {
            self.population.step_drift(&mut self.rng_drift);
        }
        self.current_day = day;
        self.blocks_today = 0;

        let day_u = u32::try_from(day.max(0)).unwrap_or(u32::MAX);
        let overrides_by_name = self.schedule.share_overrides_on(day_u);
        let mut overrides: BTreeMap<usize, f64> = BTreeMap::new();
        for (name, share) in overrides_by_name {
            if let Some(idx) = self.population.pool_index(name) {
                overrides.insert(idx, share);
            }
        }
        self.population.refresh(day as f64, &overrides);
        self.pending_multi = self.schedule.multi_coinbase_on(day_u).to_vec();
    }

    fn sample_tx_and_size(&mut self) -> (u32, u32) {
        match self.chain {
            ChainKind::Bitcoin => {
                let tx = (2_200.0 + 500.0 * self.rng_meta.standard_normal()).clamp(100.0, 5_000.0)
                    as u32;
                let size = (tx as f64 * 440.0 * (0.9 + 0.2 * self.rng_meta.unit())) as u32;
                (tx, size.min(1_400_000))
            }
            ChainKind::Ethereum => {
                let tx = (120.0 + 45.0 * self.rng_meta.standard_normal()).clamp(0.0, 450.0) as u32;
                let size = 2_000 + (tx as f64 * 250.0 * (0.8 + 0.4 * self.rng_meta.unit())) as u32;
                (tx, size)
            }
        }
    }

    fn build_block(
        &mut self,
        timestamp: i64,
        difficulty: u64,
        payouts: Vec<Address>,
        tag: Option<String>,
    ) -> Block {
        let height = self.next_height;
        let hash = BlockHash::digest(self.hash_domain, height);
        let (tx_count, size_bytes) = self.sample_tx_and_size();
        let mut builder = Block::builder(self.chain, height)
            .hash(hash)
            .parent(self.parent)
            .timestamp(Timestamp(timestamp))
            .difficulty(difficulty)
            .tx_count(tx_count)
            .size_bytes(size_bytes)
            .payouts(payouts);
        if let Some(t) = tag {
            builder = builder.tag(t);
        }
        let block = builder.build().expect("generator produces valid blocks"); // blockdec-lint: allow(panic) — the generator supplies every field the builder requires
        self.parent = hash;
        self.next_height += 1;
        self.produced += 1;
        self.blocks_today += 1;
        block
    }
}

impl Iterator for BlockGenerator {
    type Item = Block;

    fn next(&mut self) -> Option<Block> {
        if let Some(limit) = self.limit {
            if self.produced >= limit {
                return None;
            }
        }
        let arrival = self.arrival.next_block(&mut self.rng_blocks);
        if arrival.arrival_time >= self.end_time {
            return None;
        }
        let day = (arrival.arrival_time - self.start_time).div_euclid(86_400);
        if day != self.current_day {
            self.enter_day(day);
        }

        // A scheduled multi-coinbase block replaces the sampled miner.
        if let Some(pos) = self
            .pending_multi
            .iter()
            .position(|&(offset, _)| offset == self.blocks_today)
        {
            let (_, addresses) = self.pending_multi.remove(pos);
            let height = self.next_height;
            let payouts: Vec<Address> = (0..addresses)
                .map(|k| {
                    Address::synthesize(
                        self.chain,
                        ANOMALY_ADDR_DOMAIN ^ (height << 12) ^ u64::from(k),
                    )
                })
                .collect();
            return Some(self.build_block(
                arrival.declared_time,
                arrival.difficulty,
                payouts,
                None,
            ));
        }

        let (payouts, tag) = match self.population.sample(&mut self.rng_blocks) {
            MinerRef::Pool(i) => (
                vec![self.pool_addresses[i].clone()],
                self.population.pool(i).tag.clone(),
            ),
            MinerRef::Tail(i) => (
                vec![Address::synthesize(
                    self.chain,
                    TAIL_ADDR_DOMAIN ^ (self.chain.id() << 32) ^ u64::from(i),
                )],
                None,
            ),
        };
        Some(self.build_block(arrival.declared_time, arrival.difficulty, payouts, tag))
    }
}

/// The outcome of [`Scenario::generate`]: attribution results plus
/// summary metadata.
#[derive(Clone, Debug)]
pub struct GeneratedStream {
    /// Per-block attribution results, in height order.
    pub attributed: Vec<AttributedBlock>,
    /// Producer name registry accumulated during attribution.
    pub registry: ProducerRegistry,
    /// `(tag_hits, address_hits, fallbacks)` from the attributor.
    pub attribution_stats: (u64, u64, u64),
    /// First generated height.
    pub first_height: u64,
    /// Last generated height.
    pub last_height: u64,
}

impl GeneratedStream {
    /// Number of blocks generated.
    pub fn len(&self) -> usize {
        self.attributed.len()
    }

    /// True when nothing was generated.
    pub fn is_empty(&self) -> bool {
        self.attributed.is_empty()
    }
}

/// The outcome of [`Scenario::generate_columns`]: columnar attribution
/// results plus summary metadata.
#[derive(Clone, Debug)]
pub struct GeneratedColumns {
    /// Per-block attribution results in columnar (SoA) layout, height order.
    pub columns: BlockColumns,
    /// Producer name registry accumulated during attribution.
    pub registry: ProducerRegistry,
    /// `(tag_hits, address_hits, fallbacks)` from the attributor.
    pub attribution_stats: (u64, u64, u64),
    /// First generated height.
    pub first_height: u64,
    /// Last generated height.
    pub last_height: u64,
}

impl GeneratedColumns {
    /// Number of blocks generated.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when nothing was generated.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

impl Scenario {
    /// Lazy block iterator for this scenario.
    pub fn iter(&self) -> BlockGenerator {
        BlockGenerator::new(self)
    }

    /// Generate and attribute the whole stream, keeping only the compact
    /// attribution results (suitable for the full 2.2M-block Ethereum
    /// year).
    pub fn generate(&self) -> GeneratedStream {
        let _t = blockdec_obs::span!(
            "stage.simulate",
            chain = self.chain.to_string(),
            days = self.days,
            seed = self.seed,
        );
        let mut attributor = Attributor::new(self.chain, self.attribution);
        let mut attributed = Vec::new();
        let mut first_height = 0;
        let mut last_height = 0;
        for (i, block) in self.iter().enumerate() {
            if i == 0 {
                first_height = block.height;
            }
            last_height = block.height;
            attributed.push(attributor.attribute(&block));
        }
        blockdec_obs::counter("sim.blocks").add(attributed.len() as u64);
        blockdec_obs::debug!(
            blocks = attributed.len(),
            first_height = first_height,
            last_height = last_height;
            "generated attributed stream"
        );
        GeneratedStream {
            attributed,
            attribution_stats: attributor.stats(),
            registry: attributor.into_registry(),
            first_height,
            last_height,
        }
    }

    /// Generate and attribute the whole stream straight into columnar
    /// (SoA) layout — no per-block credit `Vec`s are ever allocated, so
    /// this is the cheapest way to feed the 2.2M-block Ethereum year to
    /// the measurement planner.
    pub fn generate_columns(&self) -> GeneratedColumns {
        let _t = blockdec_obs::span!(
            "stage.simulate",
            chain = self.chain.to_string(),
            days = self.days,
            seed = self.seed,
        );
        let mut attributor = Attributor::new(self.chain, self.attribution);
        let mut columns = BlockColumns::new();
        let mut first_height = 0;
        let mut last_height = 0;
        for (i, block) in self.iter().enumerate() {
            if i == 0 {
                first_height = block.height;
            }
            last_height = block.height;
            attributor.attribute_into(&block, &mut columns);
        }
        blockdec_obs::counter("sim.blocks").add(columns.len() as u64);
        blockdec_obs::debug!(
            blocks = columns.len(),
            first_height = first_height,
            last_height = last_height;
            "generated columnar attributed stream"
        );
        GeneratedColumns {
            columns,
            attribution_stats: attributor.stats(),
            registry: attributor.into_registry(),
            first_height,
            last_height,
        }
    }

    /// Materialize full [`Block`]s (small runs / tests / export).
    pub fn generate_blocks(&self) -> Vec<Block> {
        let _t = blockdec_obs::span!(
            "stage.simulate",
            chain = self.chain.to_string(),
            days = self.days,
            seed = self.seed,
        );
        let blocks: Vec<Block> = self.iter().collect();
        blockdec_obs::counter("sim.blocks").add(blocks.len() as u64);
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::validate::{validate_chain, ValidationConfig};

    fn small_btc(days: u32) -> Scenario {
        Scenario::bitcoin_2019().truncated(days)
    }

    #[test]
    fn generates_roughly_the_right_block_count() {
        let s = small_btc(10);
        let n = s.iter().count();
        // ~144/day ± sampling noise.
        assert!((1_200..1_700).contains(&n), "{n} blocks in 10 days");
    }

    #[test]
    fn deterministic_per_seed() {
        let s = small_btc(3);
        let a: Vec<Block> = s.generate_blocks();
        let b: Vec<Block> = s.generate_blocks();
        assert_eq!(a, b);
        let c: Vec<Block> = s.clone().with_seed(7).generate_blocks();
        assert_ne!(a, c);
    }

    #[test]
    fn heights_are_contiguous_from_spec_origin() {
        let s = small_btc(2);
        let blocks = s.generate_blocks();
        assert_eq!(blocks[0].height, s.spec().first_block_2019);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.height, s.spec().first_block_2019 + i as u64);
        }
    }

    #[test]
    fn generated_chain_validates() {
        for s in [
            Scenario::bitcoin_2019().truncated(5),
            Scenario::ethereum_2019().truncated(1),
        ] {
            let blocks = s.generate_blocks();
            let report = validate_chain(&blocks, &ValidationConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(report.blocks as usize, blocks.len());
        }
    }

    #[test]
    fn timestamps_stay_in_scenario_range() {
        let s = small_btc(4);
        let end = s.start_time + 4 * 86_400;
        for b in s.iter() {
            // Declared jitter may run slightly past an edge; true arrival
            // is bounded, so allow the 2-minute declared slack.
            assert!(b.timestamp.secs() >= s.start_time - 130);
            assert!(b.timestamp.secs() < end + 130);
        }
    }

    #[test]
    fn limit_blocks_caps_output() {
        let mut s = small_btc(10);
        s.limit_blocks = Some(100);
        assert_eq!(s.iter().count(), 100);
    }

    #[test]
    fn multi_coinbase_events_appear() {
        // Day 13 carries the two big anomaly blocks.
        let s = small_btc(15);
        let blocks = s.generate_blocks();
        let multi: Vec<&Block> = blocks
            .iter()
            .filter(|b| b.coinbase.payout_addresses.len() > 1)
            .collect();
        let counts: Vec<usize> = multi
            .iter()
            .map(|b| b.coinbase.payout_addresses.len())
            .collect();
        assert!(
            counts.contains(&85),
            "expected an 85-address block: {counts:?}"
        );
        assert!(
            counts.contains(&93),
            "expected a 93-address block: {counts:?}"
        );
        // They land on day 13.
        let origin = Timestamp::year_2019_start();
        for b in &multi {
            if b.coinbase.payout_addresses.len() >= 85 {
                assert_eq!(b.timestamp.day_index(origin), 13);
            }
        }
    }

    #[test]
    fn anomaly_addresses_are_unique_within_block() {
        let s = small_btc(15);
        for b in s.iter() {
            let n = b.coinbase.payout_addresses.len();
            if n > 1 {
                let mut set: Vec<&str> = b
                    .coinbase
                    .payout_addresses
                    .iter()
                    .map(|a| a.as_str())
                    .collect();
                set.sort_unstable();
                set.dedup();
                assert_eq!(set.len(), n, "duplicate payout addresses");
            }
        }
    }

    #[test]
    fn pool_blocks_carry_tags_and_stable_addresses() {
        let s = small_btc(2);
        let mut f2pool_addrs: Vec<String> = Vec::new();
        for b in s.iter() {
            if b.coinbase.tag.as_deref() == Some("/F2Pool/") {
                f2pool_addrs.push(b.coinbase.payout_addresses[0].as_str().to_string());
            }
        }
        assert!(!f2pool_addrs.is_empty());
        f2pool_addrs.dedup();
        assert_eq!(f2pool_addrs.len(), 1, "pool address must be stable");
    }

    #[test]
    fn generate_attributes_every_block() {
        let s = small_btc(3);
        let stream = s.generate();
        assert_eq!(stream.len(), s.iter().count());
        assert!(!stream.is_empty());
        assert!(stream.registry.len() > 10);
        let (tag_hits, _, fallbacks) = stream.attribution_stats;
        assert!(tag_hits > 0, "pool tags must attribute");
        assert!(fallbacks > 0, "tail miners must fall back to addresses");
        assert_eq!(stream.first_height, s.spec().first_block_2019);
        assert_eq!(
            stream.last_height,
            s.spec().first_block_2019 + stream.len() as u64 - 1
        );
    }

    #[test]
    fn generate_columns_matches_generate() {
        // 15 days covers the day-13 multi-coinbase anomaly blocks, so the
        // columnar path is exercised on real multi-credit blocks too.
        let s = small_btc(15);
        let aos = s.generate();
        let soa = s.generate_columns();
        soa.columns.validate().unwrap();
        assert_eq!(soa.columns, BlockColumns::from_blocks(&aos.attributed));
        assert_eq!(soa.attribution_stats, aos.attribution_stats);
        assert_eq!(soa.first_height, aos.first_height);
        assert_eq!(soa.last_height, aos.last_height);
        let names_aos: Vec<&str> = aos.registry.iter().map(|(_, n)| n).collect();
        let names_soa: Vec<&str> = soa.registry.iter().map(|(_, n)| n).collect();
        assert_eq!(names_aos, names_soa);
    }

    #[test]
    fn ethereum_attribution_uses_known_addresses() {
        let mut s = Scenario::ethereum_2019().truncated(1);
        s.limit_blocks = Some(2_000);
        let stream = s.generate();
        let names: Vec<&str> = stream.registry.iter().map(|(_, n)| n).collect();
        assert!(names.contains(&"Ethermine"), "registry: {names:?}");
        assert!(names.contains(&"SparkPool"));
    }

    #[test]
    fn dominant_burst_shifts_production() {
        // Compare BTC.com's share on burst days (61..65) vs before.
        let s = Scenario::bitcoin_2019().truncated(66);
        let origin = Timestamp::year_2019_start();
        let mut burst = (0u32, 0u32); // (btc.com, total)
        let mut before = (0u32, 0u32);
        for b in s.iter() {
            let day = b.timestamp.day_index(origin);
            let is_btccom = b.coinbase.tag.as_deref() == Some("/BTC.COM/");
            if (61..65).contains(&day) {
                burst.1 += 1;
                burst.0 += u32::from(is_btccom);
            } else if (40..54).contains(&day) {
                before.1 += 1;
                before.0 += u32::from(is_btccom);
            }
        }
        let burst_share = f64::from(burst.0) / f64::from(burst.1);
        let before_share = f64::from(before.0) / f64::from(before.1);
        assert!(burst_share > 0.40, "burst share {burst_share}");
        assert!(before_share < 0.30, "baseline share {before_share}");
    }
}
