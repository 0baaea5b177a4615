//! Producer weight distributions.
//!
//! A [`ProducerDistribution`] is the object every metric is computed on:
//! the multiset of block credits accumulated per producer inside one
//! measurement window. It supports incremental `add`/`remove` so the
//! sliding-window engine can slide without rebuilding, and snapshots to a
//! plain weight vector for the batch metric functions.
//!
//! # Representation
//!
//! Weights live in dense slots, one `f64` per producer id, indexed by
//! [`ProducerId::index`] and grown on first touch. Beside them sit the
//! list of ids that hold weight (the first `count` entries of a buffer
//! with one entry per id, plus one) and each present id's position in
//! that list. `add` and `remove` are O(1); `producers`, `is_empty`,
//! `iter`, [`ProducerDistribution::sorted_weights_into`] and `clear` are
//! O(present producers), never O(dictionary), so the window core's
//! rebuild arm, which clears once per fixed bucket, does not pay for a
//! large dictionary.
//!
//! [`ProducerDistribution::add_credits`], which adds the window core's
//! credit runs, grows the slots once for the run's largest id and has no
//! per-credit presence branch: it writes each id at the list's end and
//! bumps `count` only when the id joins. The spare entry gives that
//! write a place when every id is already present.
//!
//! Why: every window of every matrix cell folds each block's credits
//! through here, about seven updates per simulated Ethereum block. With
//! the `BTreeMap<ProducerId, f64>` this replaced, those updates, not the
//! per-window sort, were where the planner spent its time, and the
//! planner was about 70% of a `measure` run over a 60-day Ethereum store.
//! Dense slots roughly halved the planner's time (PERFORMANCE.md, "Dense
//! credit slots and slicing-by-8 CRC"). Adding the 359k-credit run of a
//! 60-day Ethereum stream one [`ProducerDistribution::add`] at a time
//! took 0.98–1.05 ms (the fastest of 40 runs), and
//! [`ProducerDistribution::add_credits`] takes 0.57–0.69 ms
//! (PERFORMANCE.md, "Calendar windows formed per bucket").
//!
//! Each producer's slot sees the same f64 operations in the same order a
//! map entry did, the total is updated identically, and the metric
//! kernels read a sorted copy, so every output is bitwise the map's under
//! every attribution mode.
//!
//! Memory: ids are store-dictionary
//! ([`blockdec_chain::ProducerRegistry`]) indices, and a distribution
//! holds 16 bytes per id up to the largest id it has seen, whether or not
//! its window holds that producer: about 4.8 KiB for the 310 producers of
//! the simulated Ethereum year. The store's columnar scan rejects an id
//! outside its dictionary, so a damaged catalog cannot ask for more.

use blockdec_chain::{AttributedBlock, ProducerId};

/// Weight accumulated per producer within a window.
///
/// Weights are f64 block credits (1.0 per block in the paper's
/// per-address attribution; fractional under
/// [`blockdec_chain::AttributionMode::Fractional`]). Producer ids are
/// dictionary indices: the distribution keeps one slot per id up to the
/// largest id added (see the module docs for the representation and its
/// memory bound).
#[derive(Clone, Debug, Default)]
pub struct ProducerDistribution {
    /// Weight per id, indexed by [`ProducerId::index`]; `0.0` when absent.
    slots: Vec<f64>,
    /// `present[..count]` are the ids holding weight, in arbitrary order.
    /// One entry longer than `slots` once grown; the rest is scratch.
    present: Vec<ProducerId>,
    count: usize,
    /// Each present id's index in `present`, indexed like `slots`;
    /// [`ABSENT`] for the others.
    position: Vec<u32>,
    total: f64,
}

/// Weights below this are treated as zero when removing: guards against
/// f64 residue keeping phantom producers alive in long slides.
const ZERO_EPS: f64 = 1e-9;

/// `position` of an id that holds no weight.
const ABSENT: u32 = u32::MAX;

impl ProducerDistribution {
    /// An empty distribution.
    pub fn new() -> ProducerDistribution {
        ProducerDistribution::default()
    }

    /// Build from an iterator of `(producer, weight)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (ProducerId, f64)>>(pairs: I) -> Self {
        let mut d = ProducerDistribution::new();
        for (p, w) in pairs {
            d.add(p, w);
        }
        d
    }

    /// Build by accumulating all credits of a block slice.
    pub fn from_blocks(blocks: &[AttributedBlock]) -> Self {
        let mut d = ProducerDistribution::new();
        for b in blocks {
            d.add_block(b);
        }
        d
    }

    /// Add weight to a producer.
    #[inline]
    pub fn add(&mut self, producer: ProducerId, weight: f64) {
        debug_assert!(weight >= 0.0, "negative credit");
        if weight == 0.0 {
            return;
        }
        let i = producer.index();
        if i >= self.slots.len() {
            self.grow(i + 1);
        }
        if self.position[i] == ABSENT {
            self.position[i] = self.count as u32;
            self.present[self.count] = producer;
            self.count += 1;
        }
        self.slots[i] += weight;
        self.total += weight;
    }

    /// Room for ids below `ids`: slots, positions, and the present list
    /// with its spare entry.
    fn grow(&mut self, ids: usize) {
        self.slots.resize(ids, 0.0);
        self.position.resize(ids, ABSENT);
        self.present.resize(ids + 1, ProducerId(0));
    }

    /// Remove weight from a producer (the mirror of a prior `add`).
    ///
    /// Panics in debug builds if the producer would go negative beyond
    /// floating-point residue; in release the weight clamps at zero.
    #[inline]
    pub fn remove(&mut self, producer: ProducerId, weight: f64) {
        if weight == 0.0 {
            return;
        }
        let i = producer.index();
        let held = self.position.get(i).is_some_and(|&at| at != ABSENT);
        debug_assert!(held, "removing weight from absent producer");
        if !held {
            return;
        }
        let w = &mut self.slots[i];
        debug_assert!(
            *w >= weight - ZERO_EPS,
            "removing more weight than present: {w} < {weight}"
        );
        *w -= weight;
        self.total -= weight;
        if *w <= ZERO_EPS {
            // Fold the residue into the total so it keeps matching the
            // sum of stored weights.
            self.total -= *w;
            *w = 0.0;
            let at = self.position[i] as usize;
            self.position[i] = ABSENT;
            self.count -= 1;
            if at < self.count {
                let moved = self.present[self.count];
                self.present[at] = moved;
                self.position[moved.index()] = at as u32;
            }
        }
    }

    /// Add every credit of a block.
    pub fn add_block(&mut self, block: &AttributedBlock) {
        for c in &block.credits {
            self.add(c.producer, c.weight);
        }
    }

    /// Remove every credit of a block (for the trailing edge of a slide).
    pub fn remove_block(&mut self, block: &AttributedBlock) {
        for c in &block.credits {
            self.remove(c.producer, c.weight);
        }
    }

    /// Add a block's credits given as parallel columns — the columnar
    /// counterpart of [`ProducerDistribution::add_block`]. Slices must be
    /// the same length (one weight per producer). Every slot and the
    /// total see the f64 operations of one [`ProducerDistribution::add`]
    /// per credit, in order, and ids join in the same order.
    pub fn add_credits(&mut self, producers: &[ProducerId], weights: &[f64]) {
        debug_assert_eq!(producers.len(), weights.len(), "parallel credit columns");
        let Some(largest) = producers.iter().map(|p| p.index()).max() else {
            return;
        };
        if largest >= self.slots.len() {
            self.grow(largest + 1);
        }
        let (mut count, mut total) = (self.count, self.total);
        for (&p, &w) in producers.iter().zip(weights) {
            debug_assert!(w >= 0.0, "negative credit");
            if w == 0.0 {
                continue;
            }
            let i = p.index();
            let at = self.position[i];
            let joins = at == ABSENT;
            // Written every time; kept only when `count` moves past it.
            self.present[count] = p;
            self.position[i] = if joins { count as u32 } else { at };
            count += usize::from(joins);
            self.slots[i] += w;
            total += w;
        }
        (self.count, self.total) = (count, total);
    }

    /// Remove a block's credits given as parallel columns — the columnar
    /// counterpart of [`ProducerDistribution::remove_block`].
    pub fn remove_credits(&mut self, producers: &[ProducerId], weights: &[f64]) {
        debug_assert_eq!(producers.len(), weights.len(), "parallel credit columns");
        for (&p, &w) in producers.iter().zip(weights) {
            self.remove(p, w);
        }
    }

    /// Number of distinct producers with positive weight.
    pub fn producers(&self) -> usize {
        self.count
    }

    /// Total weight across all producers.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// True when no producer holds weight.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Weight held by one producer (0.0 if absent).
    pub fn weight_of(&self, producer: ProducerId) -> f64 {
        self.slots.get(producer.index()).copied().unwrap_or(0.0)
    }

    /// Snapshot the weights as a vector in producer-id order — the input
    /// shape the batch metric functions take. The deterministic order
    /// makes every downstream f64 reduction reproducible run-to-run.
    pub fn weight_vector(&self) -> Vec<f64> {
        let mut ids = self.present[..self.count].to_vec();
        ids.sort_unstable();
        ids.into_iter().map(|p| self.slots[p.index()]).collect()
    }

    /// Fill `buf` with this distribution's weights in
    /// sorted-scratch-contract form: positive finite weights only,
    /// ascending by [`f64::total_cmp`] — ready for the `*_sorted` metric
    /// kernels ([`crate::metrics::MetricKind::compute_sorted`]). The
    /// buffer is cleared first so one allocation can serve every window
    /// of a run; the result is bit-identical to
    /// `crate::metrics::sorted_positive(&self.weight_vector())`.
    pub fn sorted_weights_into(&self, buf: &mut Vec<f64>) {
        buf.clear();
        buf.extend(
            self.iter()
                .map(|(_, w)| w)
                .filter(|w| w.is_finite() && *w > 0.0),
        );
        buf.sort_unstable_by(f64::total_cmp);
    }

    /// Snapshot `(producer, weight)` pairs sorted by descending weight,
    /// ties broken by producer id for determinism.
    pub fn ranked(&self) -> Vec<(ProducerId, f64)> {
        let mut v: Vec<(ProducerId, f64)> = self.iter().collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Iterate `(producer, weight)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (ProducerId, f64)> + '_ {
        self.present[..self.count]
            .iter()
            .map(|&p| (p, self.slots[p.index()]))
    }

    /// Drop all weights. O(present producers): the slots stay allocated.
    pub fn clear(&mut self) {
        for p in &self.present[..self.count] {
            self.slots[p.index()] = 0.0;
            self.position[p.index()] = ABSENT;
        }
        self.count = 0;
        self.total = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::hash::splitmix64;
    use blockdec_chain::{Credit, Timestamp};
    use std::collections::BTreeMap;

    fn p(i: u32) -> ProducerId {
        ProducerId(i)
    }

    fn block(height: u64, credits: &[(u32, f64)]) -> AttributedBlock {
        AttributedBlock {
            height,
            timestamp: Timestamp(height as i64),
            credits: credits
                .iter()
                .map(|&(id, w)| Credit {
                    producer: p(id),
                    weight: w,
                })
                .collect(),
        }
    }

    #[test]
    fn add_accumulates() {
        let mut d = ProducerDistribution::new();
        d.add(p(1), 1.0);
        d.add(p(1), 1.0);
        d.add(p(2), 3.0);
        assert_eq!(d.producers(), 2);
        assert_eq!(d.weight_of(p(1)), 2.0);
        assert_eq!(d.total_weight(), 5.0);
    }

    #[test]
    fn zero_weight_is_a_noop() {
        let mut d = ProducerDistribution::new();
        d.add(p(1), 0.0);
        assert!(d.is_empty());
        d.remove(p(1), 0.0);
        assert!(d.is_empty());
    }

    #[test]
    fn remove_mirrors_add() {
        let mut d = ProducerDistribution::new();
        d.add(p(1), 2.0);
        d.add(p(2), 1.0);
        d.remove(p(1), 1.0);
        assert_eq!(d.weight_of(p(1)), 1.0);
        d.remove(p(1), 1.0);
        assert_eq!(d.producers(), 1);
        assert_eq!(d.weight_of(p(1)), 0.0);
        assert!((d.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_residue_is_cleaned_up() {
        let mut d = ProducerDistribution::new();
        // Ten additions of 0.1 then ten removals: f64 residue must not
        // leave a phantom producer behind.
        for _ in 0..10 {
            d.add(p(7), 0.1);
        }
        for _ in 0..10 {
            d.remove(p(7), 0.1);
        }
        assert!(
            d.is_empty(),
            "phantom producer left: {:?}",
            d.weight_of(p(7))
        );
    }

    #[test]
    fn block_add_remove_roundtrip() {
        let b1 = block(1, &[(1, 1.0)]);
        let b2 = block(2, &[(2, 0.5), (3, 0.5)]);
        let mut d = ProducerDistribution::new();
        d.add_block(&b1);
        d.add_block(&b2);
        assert_eq!(d.producers(), 3);
        assert!((d.total_weight() - 2.0).abs() < 1e-12);
        d.remove_block(&b1);
        d.remove_block(&b2);
        assert!(d.is_empty());
        assert!(d.total_weight().abs() < 1e-9);
    }

    #[test]
    fn ranked_is_descending_and_deterministic() {
        let d =
            ProducerDistribution::from_pairs([(p(3), 1.0), (p(1), 5.0), (p(2), 1.0), (p(4), 3.0)]);
        let r = d.ranked();
        assert_eq!(r[0], (p(1), 5.0));
        assert_eq!(r[1], (p(4), 3.0));
        // Equal weights tie-break by id.
        assert_eq!(r[2], (p(2), 1.0));
        assert_eq!(r[3], (p(3), 1.0));
    }

    #[test]
    fn from_blocks_equals_manual() {
        let blocks = vec![
            block(1, &[(1, 1.0)]),
            block(2, &[(1, 1.0)]),
            block(3, &[(2, 1.0)]),
        ];
        let d = ProducerDistribution::from_blocks(&blocks);
        assert_eq!(d.weight_of(p(1)), 2.0);
        assert_eq!(d.weight_of(p(2)), 1.0);
    }

    #[test]
    fn weight_vector_matches_contents() {
        let d = ProducerDistribution::from_pairs([(p(1), 2.0), (p(2), 3.0)]);
        let mut v = d.weight_vector();
        v.sort_by(f64::total_cmp);
        assert_eq!(v, vec![2.0, 3.0]);
    }

    #[test]
    fn sorted_weights_into_reuses_and_sorts() {
        let d = ProducerDistribution::from_pairs([(p(9), 3.0), (p(1), 5.0), (p(4), 1.0)]);
        let mut buf = vec![99.0; 8];
        d.sorted_weights_into(&mut buf);
        assert_eq!(buf, vec![1.0, 3.0, 5.0]);
        // Refill with a different distribution: buffer is cleared first.
        let d2 = ProducerDistribution::from_pairs([(p(2), 2.0)]);
        d2.sorted_weights_into(&mut buf);
        assert_eq!(buf, vec![2.0]);
        assert_eq!(buf, crate::metrics::sorted_positive(&d2.weight_vector()));
    }

    #[test]
    fn clear_resets() {
        let mut d = ProducerDistribution::from_pairs([(p(1), 2.0)]);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.total_weight(), 0.0);
    }

    /// The map-backed distribution the dense slots replaced, with its
    /// arithmetic: the reference for [`dense_slots_match_the_map_model`].
    #[derive(Default)]
    struct MapModel {
        weights: BTreeMap<ProducerId, f64>,
        total: f64,
    }

    impl MapModel {
        fn add(&mut self, producer: ProducerId, weight: f64) {
            *self.weights.entry(producer).or_insert(0.0) += weight;
            self.total += weight;
        }

        fn remove(&mut self, producer: ProducerId, weight: f64) {
            let w = self.weights.get_mut(&producer).expect("model holds it");
            *w -= weight;
            self.total -= weight;
            if *w <= ZERO_EPS {
                self.total -= *w;
                self.weights.remove(&producer);
            }
        }

        fn clear(&mut self) {
            self.weights.clear();
            self.total = 0.0;
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|w| w.to_bits()).collect()
    }

    /// `a` and `b` hold the same state, bit for bit: every id's slot, the
    /// present ids in join order, positions that index them, and the
    /// total.
    fn assert_same_state(a: &ProducerDistribution, b: &ProducerDistribution, what: &str) {
        for i in 0..a.slots.len().max(b.slots.len()) as u32 {
            let (wa, wb) = (a.weight_of(ProducerId(i)), b.weight_of(ProducerId(i)));
            assert_eq!(wa.to_bits(), wb.to_bits(), "{what}: slot {i}");
        }
        assert_eq!(a.producers(), b.producers(), "{what}");
        assert_eq!(a.present[..a.count], b.present[..b.count], "{what}");
        for d in [a, b] {
            let held = d.position.iter().filter(|&&at| at != ABSENT).count();
            assert_eq!(held, d.count, "{what}");
            for (at, q) in d.present[..d.count].iter().enumerate() {
                assert_eq!(d.position[q.index()], at as u32, "{what}: {q:?}");
            }
        }
        assert_eq!(
            a.total_weight().to_bits(),
            b.total_weight().to_bits(),
            "{what}"
        );
    }

    /// Seeded credit runs, added by `add_credits` to one distribution and
    /// one `add` per credit to another, with zero weights, ids first seen
    /// mid-run, run removals that empty the distribution, and clears.
    #[test]
    fn add_credits_equals_a_loop_of_add() {
        const WEIGHTS: [f64; 6] = [1.0, 0.0, 0.5, 1.0 / 3.0, 0.1, 2.0];
        let mut state = 104_729u64;
        let mut next = |n: usize| {
            state = splitmix64(state);
            (state % n as u64) as usize
        };
        let mut runs = ProducerDistribution::new();
        let mut adds = ProducerDistribution::new();
        // Every non-zero credit added and not yet removed, oldest first.
        let mut live: Vec<(ProducerId, f64)> = Vec::new();
        let (mut joined_mid_run, mut added_after_emptying) = (0, 0);
        // Whether the last removal left no producer, and nothing since
        // added one.
        let mut emptied = false;
        for step in 0..4_000 {
            let what = format!("step {step}");
            match next(12) {
                0 => {
                    runs.clear();
                    adds.clear();
                    live.clear();
                    emptied = false;
                }
                1..=4 if !live.is_empty() => {
                    let run: Vec<(ProducerId, f64)> = live.drain(..1 + next(live.len())).collect();
                    let (producers, weights): (Vec<ProducerId>, Vec<f64>) = run.into_iter().unzip();
                    runs.remove_credits(&producers, &weights);
                    adds.remove_credits(&producers, &weights);
                    emptied = runs.is_empty();
                }
                _ => {
                    // Ids grow with the step, so runs keep meeting new ones.
                    let bound = 1 + next(8 + step / 8);
                    let run: Vec<(ProducerId, f64)> = (0..next(40))
                        .map(|_| (ProducerId(next(bound) as u32), WEIGHTS[next(WEIGHTS.len())]))
                        .collect();
                    let seen = runs.slots.len();
                    joined_mid_run +=
                        usize::from(run.iter().skip(1).any(|(q, _)| q.index() >= seen));
                    added_after_emptying += usize::from(emptied && !run.is_empty());
                    let (producers, weights): (Vec<ProducerId>, Vec<f64>) =
                        run.iter().copied().unzip();
                    runs.add_credits(&producers, &weights);
                    for &(q, w) in &run {
                        adds.add(q, w);
                    }
                    live.extend(run.into_iter().filter(|&(_, w)| w != 0.0));
                    emptied &= runs.is_empty();
                }
            }
            assert_same_state(&runs, &adds, &what);
        }
        assert!(joined_mid_run > 50, "{joined_mid_run} runs met a new id");
        assert!(
            added_after_emptying > 50,
            "{added_after_emptying} runs after emptying"
        );
    }

    /// A seeded run of adds, removals and clears over ids with gaps in
    /// 0..600 and fractional weights. After every step the dense
    /// distribution must equal the map model bit for bit, through every
    /// accessor that exposes an order or a value.
    #[test]
    fn dense_slots_match_the_map_model() {
        const WEIGHTS: [f64; 5] = [1.0, 2.0, 0.5, 1.0 / 3.0, 0.1];
        let ids: Vec<ProducerId> = (0..600u32)
            .filter(|&i| splitmix64(u64::from(i) ^ 0x5eed).is_multiple_of(6))
            .map(ProducerId)
            .collect();
        assert!(ids.len() > 60 && ids.windows(2).any(|w| w[1].0 - w[0].0 > 1));
        let mut state = 7919u64;
        let mut next = |n: usize| {
            state = splitmix64(state);
            (state % n as u64) as usize
        };
        let mut dense = ProducerDistribution::new();
        let mut model = MapModel::default();
        // Every credit added and not yet removed, so removals mirror adds.
        let mut live: Vec<(ProducerId, f64)> = Vec::new();
        let mut touched: Vec<ProducerId> = Vec::new();
        let mut emptied_mid_list = 0;
        for step in 0..20_000 {
            match next(100) {
                0 => {
                    dense.clear();
                    model.clear();
                    live.clear();
                }
                1..=9 if !live.is_empty() => {
                    // Empty one producer, credit by credit.
                    let victim = live[next(live.len())].0;
                    let at = dense.present[..dense.count]
                        .iter()
                        .position(|&q| q == victim);
                    if at.is_some_and(|at| at + 1 < dense.count) {
                        emptied_mid_list += 1;
                    }
                    let mut k = 0;
                    while k < live.len() {
                        if live[k].0 == victim {
                            let (q, w) = live.remove(k);
                            dense.remove(q, w);
                            model.remove(q, w);
                        } else {
                            k += 1;
                        }
                    }
                    assert_eq!(dense.weight_of(victim), 0.0);
                }
                10..=44 if !live.is_empty() => {
                    let (q, w) = live.swap_remove(next(live.len()));
                    dense.remove(q, w);
                    model.remove(q, w);
                }
                _ => {
                    let q = ids[next(ids.len())];
                    let w = WEIGHTS[next(WEIGHTS.len())];
                    dense.add(q, w);
                    model.add(q, w);
                    live.push((q, w));
                    touched.push(q);
                }
            }

            assert_eq!(dense.producers(), model.weights.len(), "step {step}");
            assert_eq!(dense.is_empty(), model.weights.is_empty(), "step {step}");
            assert_eq!(
                dense.total_weight().to_bits(),
                model.total.to_bits(),
                "step {step}"
            );
            let want: Vec<f64> = model.weights.values().copied().collect();
            assert_eq!(bits(&dense.weight_vector()), bits(&want), "step {step}");
            let mut sorted = Vec::new();
            dense.sorted_weights_into(&mut sorted);
            assert_eq!(
                bits(&sorted),
                bits(&crate::metrics::sorted_positive(&want)),
                "step {step}"
            );
            let mut ranked: Vec<(ProducerId, f64)> =
                model.weights.iter().map(|(&q, &w)| (q, w)).collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let got = dense.ranked();
            assert_eq!(got.len(), ranked.len(), "step {step}");
            for ((gq, gw), (wq, ww)) in got.iter().zip(&ranked) {
                assert_eq!((gq, gw.to_bits()), (wq, ww.to_bits()), "step {step}");
            }
            for &q in &touched {
                let want = model.weights.get(&q).copied().unwrap_or(0.0);
                assert_eq!(dense.weight_of(q).to_bits(), want.to_bits(), "step {step}");
            }
            touched.sort_unstable();
            touched.dedup();
        }
        assert!(
            emptied_mid_list > 100,
            "{emptied_mid_list} mid-list empties"
        );
    }
}
