//! Flat tree arenas with adjacent children, and the blocked batch
//! descent over them.
//!
//! A tree is one `Vec` of 16-byte nodes. A split's two children sit in
//! **adjacent slots**, so a step down the tree is arithmetic on the
//! compare result — `next = left + !(x[feature] <= threshold)` — with
//! no select for the compiler to turn back into a conditional jump.
//! Leaves **self-loop**: `left` is the leaf's own index, `threshold`
//! is `+∞` and `feature` names a constant-0.0 column that a
//! [`RowBlock`] carries after the real features, so stepping a cursor
//! that already reached its leaf leaves it there. A batch therefore
//! runs every cursor for exactly `depth` steps, with no leaf test and
//! no data-dependent branch (DESIGN.md §14).

/// Rows per [`RowBlock`]: what one pass of the batch descent walks
/// through every tree. 64 rows × 23 columns is 11.5 KB, so the block
/// and a typical 2.6 KB tree stay in L1 together.
pub const BLOCK_ROWS: usize = 64;

/// Cursors stepped together in the batch descent's inner loop: eight
/// independent dependency chains hide the load-compare-add latency of
/// one step (four leave the core idle, sixteen spill registers).
const CURSORS: usize = 8;

/// The largest feature or class count a packed node can address: the
/// feature index after the last real one names the zero column, and
/// both fields are `u16`.
pub(crate) const MAX_ARITY: usize = u16::MAX as usize - 1;

/// One arena node (16 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlatNode {
    /// Split threshold (`x[feature] <= threshold` goes left); `+∞` for
    /// leaves.
    pub threshold: f64,
    /// Index of the left child, the right child being `left + 1`; a
    /// leaf's own index.
    pub left: u32,
    /// Split feature; the zero column for leaves.
    pub feature: u16,
    /// Class of a leaf; unused for splits.
    pub class: u16,
}

/// A place in a [`FlatTree`] under construction: the root, or a child
/// handed out by [`FlatTree::split`]. It carries its depth so the tree
/// knows how many steps the batch descent needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    index: u32,
    depth: u32,
}

impl Slot {
    /// Splits between the root and this slot.
    pub(crate) fn depth(self) -> usize {
        self.depth as usize
    }
}

/// A flat tree, built top-down: every slot starts as a leaf of class
/// 0 and is either given its class with [`FlatTree::leaf`] or turned
/// into a split with [`FlatTree::split`], which appends the two
/// children.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlatTree {
    nodes: Vec<FlatNode>,
    n_features: u16,
    depth: u32,
}

impl FlatTree {
    /// A leaf-only tree of class 0 over `n_features` features.
    ///
    /// # Panics
    /// If `n_features` exceeds [`MAX_ARITY`].
    pub(crate) fn new(n_features: usize) -> Self {
        assert!(n_features <= MAX_ARITY, "{n_features} features exceed the packed node's u16");
        let n_features = n_features as u16;
        FlatTree { nodes: vec![Self::leaf_node(0, n_features, 0)], n_features, depth: 0 }
    }

    fn leaf_node(index: u32, zero_column: u16, class: u16) -> FlatNode {
        FlatNode { threshold: f64::INFINITY, left: index, feature: zero_column, class }
    }

    /// The root's slot.
    pub(crate) fn root(&self) -> Slot {
        Slot { index: 0, depth: 0 }
    }

    /// Make `slot` a leaf of `class`.
    ///
    /// # Panics
    /// If `class` exceeds [`MAX_ARITY`].
    pub(crate) fn leaf(&mut self, slot: Slot, class: usize) {
        assert!(class <= MAX_ARITY, "class {class} exceeds the packed node's u16");
        self.nodes[slot.index as usize] =
            Self::leaf_node(slot.index, self.n_features, class as u16);
    }

    /// Make `slot` a split on `x[feature] <= threshold` and append its
    /// children; returns their slots, left then right.
    ///
    /// # Panics
    /// If `feature` is not below the tree's feature count.
    pub(crate) fn split(&mut self, slot: Slot, feature: usize, threshold: f64) -> (Slot, Slot) {
        assert!(feature < self.n_features as usize, "split feature {feature} out of range");
        let left = u32::try_from(self.nodes.len()).expect("a tree holds fewer than 2^32 nodes");
        self.nodes[slot.index as usize] =
            FlatNode { threshold, left, feature: feature as u16, class: 0 };
        self.nodes.push(Self::leaf_node(left, self.n_features, 0));
        self.nodes.push(Self::leaf_node(left + 1, self.n_features, 0));
        let depth = slot.depth + 1;
        self.depth = self.depth.max(depth);
        (Slot { index: left, depth }, Slot { index: left + 1, depth })
    }

    /// Root-to-leaf descent for one row of `n_features` values;
    /// returns the class. NaN compares false and goes right. The
    /// reference the blocked descent is tested against.
    #[cfg(test)]
    pub(crate) fn predict(&self, x: &[f64]) -> usize {
        let mut i = 0u32;
        loop {
            let node = &self.nodes[i as usize];
            if node.left == i {
                return node.class as usize;
            }
            // Not `>`: NaN must go right, exactly as in the reference tree.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let right = !(x[node.feature as usize] <= node.threshold);
            i = node.left + u32::from(right);
        }
    }

    /// Blocked batch descent over the rows of `block` that `ids` names:
    /// `out[j]` is row `ids[j]`'s class, bit-identical to the one-row
    /// root-to-leaf walk — each step is the same compare on the same bits.
    ///
    /// Rows advance `CURSORS` (8) at a time for exactly `depth` steps;
    /// the cursors filling a short last group walk the buffer's first
    /// row (every index they follow is valid) and are not reported.
    ///
    /// # Panics
    /// If the block's feature count differs from the tree's, or `ids`
    /// holds more than [`BLOCK_ROWS`] ids or one not below it.
    pub(crate) fn predict_rows(&self, block: &RowBlock, ids: &[u8], out: &mut [u16; BLOCK_ROWS]) {
        assert_eq!(block.n_features(), self.n_features as usize, "feature arity mismatch");
        assert!(ids.len() <= BLOCK_ROWS, "{} row ids for a block of {BLOCK_ROWS}", ids.len());
        let nodes = self.nodes.as_slice();
        let stride = block.stride;
        for (group, classes) in ids.chunks(CURSORS).zip(out.chunks_exact_mut(CURSORS)) {
            let base: [usize; CURSORS] =
                std::array::from_fn(|k| group.get(k).map_or(0, |&id| usize::from(id) * stride));
            let mut cur = [0u32; CURSORS];
            for _ in 0..self.depth {
                for (k, c) in cur.iter_mut().enumerate() {
                    let node = &nodes[*c as usize];
                    let x = block.data[base[k] + node.feature as usize];
                    // Not `>`: NaN must go right, exactly as in the reference tree.
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    let right = !(x <= node.threshold);
                    *c = node.left + u32::from(right);
                }
            }
            for (class, c) in classes.iter_mut().zip(cur) {
                *class = nodes[c as usize].class;
            }
        }
    }

    /// Number of nodes.
    pub(crate) fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of features a row must have.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features as usize
    }

    /// The arena (serialization support). A node whose `left` is its
    /// own index is a leaf.
    pub(crate) fn nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// Number of leaves.
    #[cfg(test)]
    pub(crate) fn leaves(&self) -> usize {
        self.nodes.iter().enumerate().filter(|(i, n)| n.left as usize == *i).count()
    }

    /// Depth (a leaf-only tree has depth 0).
    pub(crate) fn depth(&self) -> usize {
        self.depth as usize
    }
}

/// Up to [`BLOCK_ROWS`] rows copied into one contiguous buffer for
/// the blocked tree descent: row `r` occupies `stride` values,
/// `n_features + 1`, the last of them the constant 0.0 that leaves
/// compare against. One block is filled once and walked by the trees of
/// every model that votes on it, each row until its vote is decided.
#[derive(Debug, Clone)]
pub struct RowBlock {
    data: Vec<f64>,
    stride: usize,
    rows: usize,
}

impl RowBlock {
    /// An empty block for rows of `n_features` values.
    pub fn new(n_features: usize) -> Self {
        let stride = n_features + 1;
        RowBlock { data: vec![0.0; BLOCK_ROWS * stride], stride, rows: 0 }
    }

    /// Replace the block's rows with copies of `rows`; what the buffer
    /// held beyond them stays as padding.
    ///
    /// # Panics
    /// If there are more than [`BLOCK_ROWS`] rows, or one's length
    /// differs from the block's feature count.
    pub fn fill<R: AsRef<[f64]>>(&mut self, rows: &[R]) {
        self.rows = 0;
        for row in rows {
            self.push_row(row.as_ref());
        }
    }

    /// Append a row and return its `n_features` values for the caller
    /// to fill (they hold an earlier row's values until then).
    ///
    /// # Panics
    /// If the block already holds [`BLOCK_ROWS`] rows.
    pub fn next_row(&mut self) -> &mut [f64] {
        assert!(self.rows < BLOCK_ROWS, "row block is full");
        let start = self.rows * self.stride;
        self.rows += 1;
        &mut self.data[start..start + self.stride - 1]
    }

    /// Append a copy of `row`.
    ///
    /// # Panics
    /// If `row.len()` differs from the block's feature count, or the
    /// block is full.
    pub(crate) fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.n_features(), "feature arity mismatch");
        self.next_row().copy_from_slice(row);
    }

    /// Rows held.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Features per row.
    pub fn n_features(&self) -> usize {
        self.stride - 1
    }

    /// The features of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} of {}", self.rows);
        &self.data[r * self.stride..(r + 1) * self.stride - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::random::{random_tree, random_value, Rng};
    use super::*;

    /// x0 <= 1.0 ? (x1 <= 5.0 ? A : B) : C
    fn two_level() -> FlatTree {
        let mut t = FlatTree::new(2);
        let (inner, c) = t.split(t.root(), 0, 1.0);
        let (a, b) = t.split(inner, 1, 5.0);
        t.leaf(a, 0);
        t.leaf(b, 1);
        t.leaf(c, 2);
        t
    }

    fn batch(t: &FlatTree, rows: &[Vec<f64>]) -> Vec<usize> {
        let mut block = RowBlock::new(t.n_features());
        let mut out = [0u16; BLOCK_ROWS];
        let ids: [u8; BLOCK_ROWS] = std::array::from_fn(|i| i as u8);
        let mut classes = Vec::new();
        for chunk in rows.chunks(BLOCK_ROWS) {
            block.fill(chunk);
            t.predict_rows(&block, &ids[..chunk.len()], &mut out);
            classes.extend(out[..chunk.len()].iter().map(|&c| c as usize));
        }
        classes
    }

    #[test]
    fn split_puts_children_in_adjacent_slots_and_leaves_self_loop() {
        let t = two_level();
        assert_eq!(t.n_nodes(), 5);
        let n = t.nodes();
        assert_eq!((n[0].feature, n[0].left), (0, 1), "root's children are slots 1 and 2");
        assert_eq!((n[1].feature, n[1].left), (1, 3), "inner split's children are slots 3 and 4");
        for (i, class) in [(2usize, 2u16), (3, 0), (4, 1)] {
            assert_eq!(n[i].left as usize, i, "leaf {i} loops on itself");
            assert_eq!(n[i].class, class);
            assert_eq!(n[i].threshold, f64::INFINITY);
            assert_eq!(n[i].feature, 2, "leaves read the zero column");
        }
    }

    #[test]
    fn predict_follows_thresholds() {
        let t = two_level();
        assert_eq!(t.predict(&[0.0, 3.0]), 0);
        assert_eq!(t.predict(&[0.0, 9.0]), 1);
        assert_eq!(t.predict(&[2.0, 0.0]), 2);
        assert_eq!(t.predict(&[1.0, 5.0]), 0, "boundaries go left");
        assert_eq!(t.predict(&[f64::NAN, 0.0]), 2, "NaN goes right");
    }

    #[test]
    fn depth_and_leaves() {
        let t = two_level();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.leaves(), 3);
        let mut stump = FlatTree::new(0);
        stump.leaf(stump.root(), 7);
        assert_eq!(stump.depth(), 0);
        assert_eq!(stump.leaves(), 1);
        assert_eq!(stump.predict(&[]), 7);
        assert_eq!(batch(&stump, &vec![vec![]; 3]), vec![7, 7, 7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_on_a_feature_the_tree_lacks_is_rejected() {
        let mut t = FlatTree::new(2);
        t.split(t.root(), 2, 0.0);
    }

    #[test]
    #[should_panic(expected = "feature arity mismatch")]
    fn block_of_another_arity_is_rejected() {
        two_level().predict_rows(&RowBlock::new(3), &[], &mut [0; BLOCK_ROWS]);
    }

    #[test]
    #[should_panic(expected = "row block is full")]
    fn block_holds_at_most_block_rows() {
        let mut b = RowBlock::new(1);
        for _ in 0..=BLOCK_ROWS {
            b.push_row(&[0.0]);
        }
    }

    #[test]
    fn block_descent_matches_per_row_predict_on_random_trees() {
        for seed in 0..60u64 {
            let mut rng = Rng(seed);
            let n_features = 1 + rng.below(6);
            let max_depth = rng.below(15);
            let t = random_tree(&mut rng, n_features, max_depth, 5);
            assert_eq!(t.depth(), max_depth, "seed {seed}");
            for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..n_features).map(|_| random_value(&mut rng)).collect())
                    .collect();
                let per_row: Vec<usize> = rows.iter().map(|r| t.predict(r)).collect();
                assert_eq!(batch(&t, &rows), per_row, "seed {seed}, {n} rows");
            }
        }
    }

    /// The descent over a list of row ids — ascending subsets as the
    /// vote's early exit leaves them, and reversed or repeated ids — is
    /// the per-row walk of the row each id names.
    #[test]
    fn row_id_descent_matches_per_row_predict_on_random_trees() {
        for seed in 0..60u64 {
            let mut rng = Rng(seed ^ 0x1D5);
            let n_features = 1 + rng.below(6);
            let max_depth = rng.below(15);
            let t = random_tree(&mut rng, n_features, max_depth, 5);
            let mut block = RowBlock::new(n_features);
            let mut out = [0u16; BLOCK_ROWS];
            for n in [1usize, 7, 8, 9, 17, 63, 64] {
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..n_features).map(|_| random_value(&mut rng)).collect())
                    .collect();
                block.fill(&rows);
                let subset: Vec<u8> = (0..n as u8).filter(|_| rng.below(2) == 0).collect();
                let reversed: Vec<u8> = (0..n as u8).rev().collect();
                let repeated: Vec<u8> = (0..n).map(|_| rng.below(n) as u8).collect();
                for ids in [&[][..], &subset, &reversed, &repeated] {
                    t.predict_rows(&block, ids, &mut out);
                    for (j, &id) in ids.iter().enumerate() {
                        let want = t.predict(&rows[usize::from(id)]);
                        assert_eq!(usize::from(out[j]), want, "seed {seed}, {n} rows, id {id}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row ids for a block")]
    fn more_ids_than_a_block_holds_are_rejected() {
        let ids = [0u8; BLOCK_ROWS + 1];
        two_level().predict_rows(&RowBlock::new(2), &ids, &mut [0; BLOCK_ROWS]);
    }
}

/// Seeded generators shared by the descent and vote suites: random
/// trees with leaves at every depth, and rows of NaN, ±∞, −0.0 and
/// on-threshold values.
#[cfg(test)]
pub(crate) mod random {
    use super::{FlatTree, Slot};

    /// splitmix64: std-only, so these suites run wherever the crate
    /// builds.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = self.0;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    const THRESHOLDS: [f64; 6] = [-2.5, -0.0, 0.0, 0.5, 1.0, 3.0];

    fn grow_random(
        t: &mut FlatTree,
        slot: Slot,
        levels_left: usize,
        n_classes: usize,
        rng: &mut Rng,
    ) {
        // A quarter of the inner slots stop early, so leaves sit at
        // every depth and cursors park while their neighbours descend.
        if levels_left == 0 || rng.below(4) == 0 {
            t.leaf(slot, rng.below(n_classes));
            return;
        }
        let feature = rng.below(t.n_features());
        let (l, r) = t.split(slot, feature, THRESHOLDS[rng.below(THRESHOLDS.len())]);
        grow_random(t, l, levels_left - 1, n_classes, rng);
        grow_random(t, r, levels_left - 1, n_classes, rng);
    }

    /// A tree of exactly `max_depth` over `n_features` features (at
    /// least one when `max_depth > 0`) with leaves of classes below
    /// `n_classes`: a spine to the full depth, random growth off it.
    pub(crate) fn random_tree(
        rng: &mut Rng,
        n_features: usize,
        max_depth: usize,
        n_classes: usize,
    ) -> FlatTree {
        let mut t = FlatTree::new(n_features);
        let mut slot = t.root();
        for level in 0..max_depth {
            let (l, r) = t.split(slot, rng.below(n_features), THRESHOLDS[rng.below(6)]);
            grow_random(&mut t, l, max_depth - level - 1, n_classes, rng);
            slot = r;
        }
        t.leaf(slot, rng.below(n_classes));
        t
    }

    pub(crate) fn random_value(rng: &mut Rng) -> f64 {
        match rng.below(10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            // Exactly on a threshold: must go left.
            4 | 5 => THRESHOLDS[rng.below(THRESHOLDS.len())],
            _ => rng.below(2000) as f64 / 250.0 - 4.0,
        }
    }
}
