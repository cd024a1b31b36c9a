//! Majority voting over independently-seeded fits.
//!
//! "For non-deterministic algorithms (both RF and SVM use
//! randomization), we run each 10 times and take the majority
//! classification" (paper §III-D).

use crate::argmax_first;
use crate::dataset::Dataset;
use crate::flat::{RowBlock, BLOCK_ROWS};
use crate::{Algorithm, Model};

/// A bag of independently trained models that predicts by majority.
#[derive(Debug, Clone)]
pub struct MajorityEnsemble {
    models: Vec<Model>,
    n_classes: usize,
    n_features: usize,
}

impl MajorityEnsemble {
    /// Train `runs` models of `algorithm` on `data` with derived seeds.
    ///
    /// The runs are independent by construction (that is the point of
    /// the vote), so they train in parallel on the [`bs_par`] pool;
    /// each run's seed depends only on `(seed, run index)`, keeping the
    /// ensemble bit-identical at every thread count.
    pub fn fit(algorithm: &Algorithm, data: &Dataset, runs: usize, seed: u64) -> Self {
        assert!(runs >= 1);
        let _stage = bs_telemetry::stage("ml.train");
        bs_telemetry::counter_add("ml.fits", runs as u64);
        let models = bs_par::par_map_range(runs, |i| {
            // One per vote run, so the Chrome export shows which
            // worker lane trained each model.
            let _stage = bs_telemetry::stage("ml.fit_run");
            algorithm.fit(data, seed.wrapping_add((i as u64).wrapping_mul(0xA076_1D64_78BD_642F)))
        });
        MajorityEnsemble { models, n_classes: data.n_classes(), n_features: data.n_features() }
    }

    /// Majority class over the member models (ties break toward the
    /// smaller class index, explicitly first-max).
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_with_confidence(x).0
    }

    /// Majority class plus its confidence: the fraction of member
    /// models voting for the winner (1.0 = unanimous, ≈ 1/k = coin
    /// flip among k classes). Low-confidence labels are the ones an
    /// operator reviews first.
    pub fn predict_with_confidence(&self, x: &[f64]) -> (usize, f64) {
        let mut votes = vec![0usize; self.n_classes];
        for m in &self.models {
            votes[m.predict(x)] += 1;
        }
        let class = argmax_first(&votes);
        (class, votes[class] as f64 / self.models.len() as f64)
    }

    /// Predict a batch, one [`RowBlock`] of rows at a time through
    /// [`MajorityEnsemble::predict_block`].
    pub fn predict_all(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        crate::predict_in_blocks(xs, self.n_features, |block, out| self.predict_block(block, out))
    }

    /// Predict every row of `block` into `out[..block.rows()]`, asking
    /// each model only about the rows whose winner is still open.
    /// Identical to [`MajorityEnsemble::predict`] per row.
    pub fn predict_block(&self, block: &RowBlock, out: &mut [usize; BLOCK_ROWS]) {
        let mut vote = BlockVote::new(block.rows(), self.n_classes);
        let mut classes = [0; BLOCK_ROWS];
        for (asked, m) in self.models.iter().enumerate() {
            if vote.live().is_empty() {
                break;
            }
            m.predict_block(block, vote.live(), &mut classes);
            vote.add(&classes);
            vote.settle(self.models.len() - asked - 1);
        }
        vote.winners(out);
    }

    /// Number of member models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no members exist (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// One block's vote in progress, trees in a forest or models in the
/// ensemble: a class tally per position, and the positions still live.
pub(crate) struct BlockVote {
    votes: Vec<u32>,
    n_classes: usize,
    live: [u8; BLOCK_ROWS],
    n_live: usize,
}

impl BlockVote {
    pub(crate) fn new(n: usize, n_classes: usize) -> Self {
        let n_classes = n_classes.max(1);
        let live = std::array::from_fn(|i| i as u8);
        BlockVote { votes: vec![0; n * n_classes], n_classes, live, n_live: n }
    }

    /// The positions whose winner the votes to come can change, ascending.
    pub(crate) fn live(&self) -> &[u8] {
        &self.live[..self.n_live]
    }

    /// One vote per live position: `classes[j]` for `live()[j]`.
    pub(crate) fn add<C: Copy + Into<usize>>(&mut self, classes: &[C]) {
        for (&p, &c) in self.live[..self.n_live].iter().zip(classes) {
            self.votes[usize::from(p) * self.n_classes + c.into()] += 1;
        }
    }

    /// Retire the live positions `remaining` more votes cannot change.
    pub(crate) fn settle(&mut self, remaining: usize) {
        let k = self.n_classes;
        for j in 0..std::mem::take(&mut self.n_live) {
            let p = self.live[j];
            if !decided(&self.votes[usize::from(p) * k..][..k], remaining as u32) {
                self.live[self.n_live] = p;
                self.n_live += 1;
            }
        }
    }

    pub(crate) fn winners(&self, out: &mut [usize; BLOCK_ROWS]) {
        for (o, votes) in out.iter_mut().zip(self.votes.chunks_exact(self.n_classes)) {
            *o = argmax_first(votes);
        }
    }
}

/// Whether `remaining` more votes leave the first-max winner `l` in
/// place: every other class `c` trails by more than `remaining`, or by
/// exactly that and loses the tie (`c > l`). Exact and tight (§14).
fn decided(votes: &[u32], remaining: u32) -> bool {
    let l = argmax_first(votes);
    let lead = votes[l];
    votes
        .iter()
        .enumerate()
        .all(|(c, &v)| c == l || v + remaining < lead || (v + remaining == lead && c > l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use crate::forest::ForestParams;
    use crate::tree::CartParams;

    fn tiny() -> Dataset {
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]);
        for i in 0..10 {
            d.push(Sample { features: vec![i as f64], label: (i >= 5) as usize });
        }
        d
    }

    #[test]
    fn ensemble_of_carts_agrees_with_single_cart() {
        let d = tiny();
        let alg = Algorithm::Cart(CartParams::default());
        let e = MajorityEnsemble::fit(&alg, &d, 10, 1);
        assert_eq!(e.len(), 10);
        let single = alg.fit(&d, 1);
        for x in [0.0, 2.0, 7.0, 9.0] {
            assert_eq!(e.predict(&[x]), single.predict(&[x]));
        }
    }

    #[test]
    fn confidence_is_unanimous_on_separable_data() {
        let d = tiny();
        let alg = Algorithm::Cart(CartParams::default());
        let e = MajorityEnsemble::fit(&alg, &d, 10, 1);
        let (class, conf) = e.predict_with_confidence(&[0.0]);
        assert_eq!(class, 0);
        assert_eq!(conf, 1.0, "identical CARTs vote unanimously");
        let (_, conf2) = e.predict_with_confidence(&[9.0]);
        assert_eq!(conf2, 1.0);
    }

    #[test]
    fn forest_ensemble_predicts_sanely() {
        let d = tiny();
        let alg = Algorithm::RandomForest(ForestParams { n_trees: 9, ..Default::default() });
        let e = MajorityEnsemble::fit(&alg, &d, 5, 2);
        assert_eq!(e.predict(&[0.0]), 0);
        assert_eq!(e.predict(&[9.0]), 1);
    }

    #[test]
    fn predict_all_matches_predict() {
        let d = tiny();
        let alg = Algorithm::RandomForest(ForestParams { n_trees: 7, ..Default::default() });
        let e = MajorityEnsemble::fit(&alg, &d, 3, 4);
        let xs: Vec<Vec<f64>> = d.samples.iter().map(|s| s.features.clone()).collect();
        let batch = e.predict_all(&xs);
        for (x, b) in xs.iter().zip(&batch) {
            assert_eq!(e.predict(x), *b);
        }
        assert!(e.predict_all(&[]).is_empty());
    }

    /// Every way `remaining` more votes can fall over `k` classes.
    fn completions(k: usize, remaining: u32) -> Vec<Vec<u32>> {
        if k == 1 {
            return vec![vec![remaining]];
        }
        (0..=remaining)
            .flat_map(|first| {
                completions(k - 1, remaining - first).into_iter().map(move |mut rest| {
                    rest.insert(0, first);
                    rest
                })
            })
            .collect()
    }

    /// Exact: when `decided` says yes, no way the remaining votes can
    /// fall moves the first-max winner. Tight: when it says no, some
    /// way does. Every tally of 2–4 classes with at most 12 votes cast,
    /// with 0–6 still to come.
    #[test]
    fn decided_holds_exactly_when_no_completion_moves_the_winner() {
        for k in 2..=4 {
            for votes in (0..=12).flat_map(|total| completions(k, total)) {
                let winner = argmax_first(&votes);
                for remaining in 0..=6 {
                    let stays = completions(k, remaining).iter().all(|extra| {
                        let end: Vec<u32> = votes.iter().zip(extra).map(|(v, e)| v + e).collect();
                        argmax_first(&end) == winner
                    });
                    assert_eq!(decided(&votes, remaining), stays, "{votes:?}, {remaining} to come");
                }
            }
        }
    }

    #[test]
    fn settle_retires_exactly_the_decided_positions() {
        let mut vote = BlockVote::new(3, 2);
        // Position 0 leads 2–0, position 1 trails 0–2, position 2 ties.
        for classes in [[0u16, 1, 0], [0, 1, 1]] {
            vote.add(&classes);
        }
        vote.settle(2);
        // Two votes to come: class 0's 2–0 lead can at worst tie, and a
        // tie goes to class 0; class 1's 2–0 lead can be tied and lose.
        assert_eq!(vote.live(), &[1, 2]);
        vote.settle(1);
        assert_eq!(vote.live(), &[2], "a 2–0 lead survives one vote; 1–1 does not");
        vote.add(&[1u16]);
        vote.settle(0);
        assert!(vote.live().is_empty());
        let mut out = [9; BLOCK_ROWS];
        vote.winners(&mut out);
        assert_eq!(out[..3], [0, 1, 1]);
    }

    use crate::flat::random::{random_tree, random_value, Rng};
    use crate::flat::FlatTree;
    use crate::forest::Forest;
    use crate::tree::DecisionTree;

    fn forest_of(trees: Vec<FlatTree>, n_classes: usize) -> Forest {
        let n_features = trees[0].n_features();
        let trees = trees.into_iter().map(|t| DecisionTree::from_flat(t, n_classes)).collect();
        Forest::from_parts(trees, n_classes, vec![0.0; n_features])
    }

    /// Shallow random trees over few features, so votes split often.
    fn random_forest(rng: &mut Rng, n_trees: usize, n_features: usize, n_classes: usize) -> Forest {
        let trees = (0..n_trees)
            .map(|_| {
                let depth = rng.below(5);
                random_tree(rng, n_features, depth, n_classes)
            })
            .collect();
        forest_of(trees, n_classes)
    }

    /// A leaf-only tree: every row votes `class`.
    fn constant(n_features: usize, class: usize) -> FlatTree {
        let mut t = FlatTree::new(n_features);
        t.leaf(t.root(), class);
        t
    }

    fn ensemble_of(forests: Vec<Forest>) -> MajorityEnsemble {
        let (n_classes, n_features) = (forests[0].n_classes(), forests[0].trees()[0].n_features());
        MajorityEnsemble {
            models: forests.into_iter().map(Model::Forest).collect(),
            n_classes,
            n_features,
        }
    }

    /// The batch vote is the per-row full vote — for the ensemble
    /// (`predict_all` → `predict_block`), for each member forest alone,
    /// and for a forest asked about every other row of a block — on
    /// NaN / ±∞ / −0.0 / on-threshold rows in batches around the block
    /// and cursor-group boundaries. Returns the rows it tried.
    fn assert_batch_is_the_full_vote(
        e: &MajorityEnsemble,
        rng: &mut Rng,
        case: &str,
    ) -> Vec<Vec<f64>> {
        let mut tried = Vec::new();
        let mut block = RowBlock::new(e.n_features);
        let mut out = [0; BLOCK_ROWS];
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let xs: Vec<Vec<f64>> =
                (0..n).map(|_| (0..e.n_features).map(|_| random_value(rng)).collect()).collect();
            let per_row: Vec<usize> = xs.iter().map(|x| e.predict(x)).collect();
            assert_eq!(e.predict_all(&xs), per_row, "{case}, {n} rows");
            for (i, m) in e.models.iter().enumerate() {
                let Model::Forest(f) = m else { unreachable!() };
                let per_row: Vec<usize> = xs.iter().map(|x| f.predict(x)).collect();
                assert_eq!(f.predict_all(&xs), per_row, "{case}, forest {i}, {n} rows");
                if n <= BLOCK_ROWS {
                    block.fill(&xs);
                    let ids: Vec<u8> = (0..n as u8).step_by(2).collect();
                    f.predict_block(&block, &ids, &mut out);
                    for (j, &id) in ids.iter().enumerate() {
                        assert_eq!(
                            out[j],
                            per_row[usize::from(id)],
                            "{case}, forest {i}, row {id}"
                        );
                    }
                }
            }
            tried.extend(xs);
        }
        tried
    }

    /// Two classes and an even number of trees: a row can tie on the
    /// last tree, and the tie must go to class 0 however late the lead
    /// changed hands.
    #[test]
    fn two_class_forests_with_even_tree_counts_tie_on_the_last_tree() {
        let mut ties = 0;
        for seed in 0..24u64 {
            let mut rng = Rng(seed ^ 0x7135);
            let n_trees = [2, 4, 8, 10, 16, 18][seed as usize % 6];
            let n_features = 1 + rng.below(3);
            let forest = random_forest(&mut rng, n_trees, n_features, 2);
            let e = ensemble_of(vec![forest]);
            for x in assert_batch_is_the_full_vote(&e, &mut rng, &format!("seed {seed}")) {
                let Model::Forest(f) = &e.models[0] else { unreachable!() };
                let ones = f.trees().iter().filter(|t| t.predict(&x) == 1).count();
                ties += usize::from(2 * ones == n_trees);
            }
        }
        assert!(ties > 100, "only {ties} tied rows: the suite is not adversarial");
        // Class 1 leads by up to m votes until the last m trees vote 0.
        for m in [1, 4, 7, 8, 9, 17] {
            let trees = (0..2 * m).map(|i| constant(2, usize::from(i < m))).collect();
            let e = ensemble_of(vec![forest_of(trees, 2)]);
            let rows = assert_batch_is_the_full_vote(&e, &mut Rng(m as u64), &format!("{m} + {m}"));
            assert!(rows.iter().all(|x| e.predict(x) == 0), "{m} + {m} ties to class 0");
        }
    }

    /// Forests of 1, 7, 8, 9 and 17 trees: no check, a check after the
    /// last tree, and a last group of 1.
    #[test]
    fn forests_on_both_sides_of_the_tree_group_boundary() {
        for seed in 0..20u64 {
            let mut rng = Rng(seed ^ 0x6B0);
            let n_trees = [1, 7, 8, 9, 17][seed as usize % 5];
            let n_features = 1 + rng.below(4);
            let n_classes = 2 + rng.below(3);
            let forests =
                (0..3).map(|_| random_forest(&mut rng, n_trees, n_features, n_classes)).collect();
            assert_batch_is_the_full_vote(&ensemble_of(forests), &mut rng, &format!("seed {seed}"));
        }
    }

    /// Ensembles of 1, 2 and 10 runs whose first half votes class 1:
    /// every row the second half gives to class 0 ties at the ensemble
    /// level, and must go to class 0.
    #[test]
    fn ensemble_ties_break_to_the_smaller_class() {
        for (seed, runs) in [1usize, 2, 10].into_iter().enumerate() {
            let mut rng = Rng(seed as u64 ^ 0xE75);
            let ones = || forest_of(vec![constant(2, 1); 3], 2);
            let zeros = || forest_of(vec![constant(2, 0); 3], 2);
            let half = runs / 2;
            let mut random: Vec<Forest> = (0..half).map(|_| ones()).collect();
            let mut constant_tie = random.clone();
            random.extend((half..runs).map(|_| random_forest(&mut rng, 9, 2, 2)));
            constant_tie.extend((half..runs).map(|_| zeros()));
            let e = ensemble_of(constant_tie);
            let rows = assert_batch_is_the_full_vote(&e, &mut rng, &format!("{runs} runs, tie"));
            if runs > 1 {
                assert!(rows.iter().all(|x| e.predict(x) == 0), "{runs} runs tie to class 0");
            }
            let e = ensemble_of(random);
            assert_batch_is_the_full_vote(&e, &mut rng, &format!("{runs} runs, random"));
        }
    }
}
