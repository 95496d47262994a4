//! Least Recently Granted (LRG) matrix arbiter.
//!
//! Models the priority vectors stored in Swizzle-Switch cross-points
//! (§II-A): a matrix `p` where `p[i][j]` means requestor `i` currently
//! outranks requestor `j`. Granting is purely combinational (single
//! cycle); updating moves the winner to the lowest priority, which yields
//! least-recently-granted order.
//!
//! `grant` and `update` are deliberately separate operations: the Hi-Rise
//! local switch computes a phase-1 winner every cycle but only commits the
//! priority update when that winner also wins the inter-layer arbitration
//! (the back-propagated update of §III-B1 that prevents starvation).

use crate::bits::BitSet;

/// An `n`-way LRG matrix arbiter.
///
/// The priority relation is kept antisymmetric and total: for any two
/// distinct requestors exactly one outranks the other, so every non-empty
/// request set has exactly one winner.
///
/// The matrix is stored row-major in one contiguous word arena (row `i`
/// occupies `words[i*w..(i+1)*w]`): `grant` reads rows with no pointer
/// chasing and `update` is a linear sweep the compiler can vectorize,
/// which is what makes per-cycle arbitration cheap at radix 64.
#[derive(Clone, Debug)]
pub struct MatrixArbiter {
    /// Row-major priority words; bit `j` of row `i` iff `i` outranks `j`.
    words: Vec<u64>,
    /// Words per row, `ceil(n / 64)`.
    w: usize,
    n: usize,
}

impl MatrixArbiter {
    /// Creates an arbiter over `n` requestors with the default initial
    /// order: lower indices outrank higher ones.
    pub fn new(n: usize) -> Self {
        let order: Vec<usize> = (0..n).collect();
        Self::with_order(&order)
    }

    /// Creates an arbiter with an explicit initial priority order,
    /// `order[0]` being the highest-priority requestor.
    ///
    /// This exists so tests can reproduce the paper's worked examples
    /// (Figs. 4 and 5), which start from particular LRG states.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn with_order(order: &[usize]) -> Self {
        let n = order.len();
        let w = n.div_ceil(64);
        let mut seen = vec![false; n];
        for &r in order {
            assert!(r < n && !seen[r], "order must be a permutation of 0..n");
            seen[r] = true;
        }
        let mut words = vec![0u64; n * w];
        // A requestor's row is exactly the set of requestors ranked below
        // it, so a running "everyone not yet placed" set fills each row
        // with one word-level copy instead of an O(n²) per-bit loop.
        let mut below = BitSet::new(n);
        for (rank, &winner) in order.iter().enumerate() {
            if rank == 0 {
                below.set_all_except(winner);
            } else {
                below.remove(winner);
            }
            words[winner * w..(winner + 1) * w].copy_from_slice(below.words());
        }
        Self { words, w, n }
    }

    /// Row `i` as a word slice.
    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.w..(i + 1) * self.w]
    }

    /// Number of requestors.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the arbiter has zero requestors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Returns whether requestor `a` currently outranks requestor `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `a == b`.
    pub fn outranks(&self, a: usize, b: usize) -> bool {
        assert!(a != b, "a requestor does not outrank itself");
        assert!(a < self.n && b < self.n, "requestor out of range");
        self.row(a)[b / 64] >> (b % 64) & 1 == 1
    }

    /// Picks the highest-priority requestor among `requests`, without
    /// changing any state. Returns `None` when `requests` is empty.
    ///
    /// Duplicates in `requests` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn grant(&self, requests: &[usize]) -> Option<usize> {
        let mut mask = BitSet::new(self.n);
        for &r in requests {
            assert!(r < self.n, "requestor {r} out of range");
            mask.insert(r);
        }
        self.grant_mask(&mask)
    }

    /// As [`grant`](Self::grant), but taking a pre-built request mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask capacity differs from the arbiter size.
    pub fn grant_mask(&self, requests: &BitSet) -> Option<usize> {
        assert_eq!(requests.capacity(), self.n, "request mask size mismatch");
        grant_mask_rows(&self.words, self.w, requests)
    }

    /// As [`grant_mask`](Self::grant_mask), but taking the request set as
    /// raw words (`requests[w]` holds requestors `64w..64w+63`) — the
    /// word-parallel kernel entry point. `W` must equal the arbiter's
    /// word count (`ceil(n / 64)`), and bits at or beyond `n` must be
    /// zero; both are debug-asserted. Candidates are scanned in
    /// ascending index order with masked word ops against the priority
    /// rows, so the result is identical to `grant_mask` on the same set.
    #[inline]
    pub fn grant_words<const W: usize>(&self, requests: &[u64; W]) -> Option<usize> {
        debug_assert_eq!(W, self.n.div_ceil(64), "word count mismatch");
        debug_assert!(
            self.n.is_multiple_of(64) || requests[W - 1] & !((1u64 << (self.n % 64)) - 1) == 0,
            "request bits beyond the arbiter size"
        );
        grant_rows::<W>(&self.words, requests)
    }

    /// Commits an LRG update: `winner` drops to the lowest priority and
    /// every other requestor gains priority over it.
    ///
    /// # Panics
    ///
    /// Panics if `winner` is out of range.
    #[inline]
    pub fn update(&mut self, winner: usize) {
        assert!(winner < self.n, "winner {winner} out of range");
        update_rows(&mut self.words, self.w, winner);
    }

    /// Current priority order, highest first. Intended for tests and
    /// debugging; it is O(n²).
    pub fn priority_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).collect();
        // Rank = number of requestors this one outranks; in a total order
        // the ranks are all distinct.
        order.sort_by_key(|&i| {
            std::cmp::Reverse(self.row(i).iter().map(|w| w.count_ones()).sum::<u32>())
        });
        order
    }
}

/// `m` independent `n`-way LRG arbiters stored back to back in one
/// word arena, for a switch that keeps one arbiter per column or per
/// output: reaching arbiter `i` is one pointer hop from the bank, not
/// one hop to a per-arbiter allocation. Each arbiter behaves exactly as
/// a [`MatrixArbiter`] over the same requests.
#[derive(Clone, Debug)]
pub(crate) struct MatrixBank {
    /// Arbiter `i`'s row-major matrix is `words[i * n * w..(i + 1) * n * w]`.
    words: Vec<u64>,
    /// Words per row, `ceil(n / 64)`.
    w: usize,
    n: usize,
}

impl MatrixBank {
    /// `m` arbiters over `n` requestors, each in
    /// [`MatrixArbiter::new`]'s initial order.
    pub(crate) fn new(m: usize, n: usize) -> Self {
        let fresh = MatrixArbiter::new(n);
        Self {
            words: fresh.words.repeat(m),
            w: fresh.w,
            n,
        }
    }

    #[inline]
    fn rows(&self, i: usize) -> &[u64] {
        let span = self.n * self.w;
        &self.words[i * span..(i + 1) * span]
    }

    /// [`MatrixArbiter::grant_mask`] on arbiter `i`.
    ///
    /// # Panics
    ///
    /// Panics if the mask capacity differs from the arbiter size.
    pub(crate) fn grant_mask(&self, i: usize, requests: &BitSet) -> Option<usize> {
        assert_eq!(requests.capacity(), self.n, "request mask size mismatch");
        grant_mask_rows(self.rows(i), self.w, requests)
    }

    /// [`MatrixArbiter::grant_words`] on arbiter `i`.
    #[inline]
    pub(crate) fn grant_words<const W: usize>(
        &self,
        i: usize,
        requests: &[u64; W],
    ) -> Option<usize> {
        debug_assert_eq!(W, self.w, "word count mismatch");
        grant_rows::<W>(self.rows(i), requests)
    }

    /// [`MatrixArbiter::update`] on arbiter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `winner` is out of range.
    #[inline]
    pub(crate) fn update(&mut self, i: usize, winner: usize) {
        assert!(winner < self.n, "winner {winner} out of range");
        let span = self.n * self.w;
        update_rows(&mut self.words[i * span..(i + 1) * span], self.w, winner);
    }

    /// Replaces arbiter `i`'s priorities with [`MatrixArbiter::with_order`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..n`.
    pub(crate) fn seed(&mut self, i: usize, order: &[usize]) {
        assert_eq!(order.len(), self.n, "order must rank every requestor");
        let span = self.n * self.w;
        self.words[i * span..(i + 1) * span]
            .copy_from_slice(&MatrixArbiter::with_order(order).words);
    }

    /// A copy of arbiter `i` (for cross-checks against circuit models).
    pub(crate) fn arbiter(&self, i: usize) -> MatrixArbiter {
        MatrixArbiter {
            words: self.rows(i).to_vec(),
            w: self.w,
            n: self.n,
        }
    }
}

/// [`MatrixArbiter::grant_mask`] over a row-major matrix `words` with
/// `w` words per row (bit `j` of row `i` iff `i` outranks `j`).
fn grant_mask_rows(words: &[u64], w: usize, requests: &BitSet) -> Option<usize> {
    requests.iter().find(|&candidate| {
        let row = &words[candidate * w..(candidate + 1) * w];
        requests.words().iter().enumerate().all(|(v, &need)| {
            let need = if v == candidate / 64 {
                need & !(1u64 << (candidate % 64))
            } else {
                need
            };
            need & !row[v] == 0
        })
    })
}

/// [`MatrixArbiter::grant_words`] over a row-major matrix `words` with
/// `W` words per row.
#[inline]
fn grant_rows<const W: usize>(words: &[u64], requests: &[u64; W]) -> Option<usize> {
    for word in 0..W {
        let mut rest = requests[word];
        while rest != 0 {
            let candidate_bit = rest & rest.wrapping_neg();
            let candidate = word * 64 + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let row = &words[candidate * W..(candidate + 1) * W];
            let mut outranked = true;
            for (v, &row_word) in row.iter().enumerate() {
                let mut need = requests[v];
                if v == word {
                    need &= !candidate_bit;
                }
                if need & !row_word != 0 {
                    outranked = false;
                    break;
                }
            }
            if outranked {
                return Some(candidate);
            }
        }
    }
    None
}

/// [`MatrixArbiter::update`] over a row-major matrix `words` with `w`
/// words per row.
#[inline]
fn update_rows(words: &mut [u64], w: usize, winner: usize) {
    if w == 1 {
        // Single-word rows are contiguous, so the column sweep is a
        // plain bounds-check-free pass the compiler vectorizes.
        // Zeroing the winner's row afterwards both drops it below
        // everybody and takes back the self-edge in one store. This
        // is the path every arbiter with n <= 64 takes — all of
        // them, for the radices the paper evaluates — and `update`
        // runs twice per grant (local column + sub-block), so it is
        // hot.
        let mask = 1u64 << winner;
        for row in words.iter_mut() {
            *row |= mask;
        }
        words[winner] = 0;
        return;
    }
    // The winner drops below everybody: zero its row…
    words[winner * w..(winner + 1) * w].fill(0);
    // …and set its bit in every row — then take back the self-edge.
    let word = winner / 64;
    let mask = 1u64 << (winner % 64);
    for row in words.chunks_exact_mut(w) {
        row[word] |= mask;
    }
    words[winner * w + word] &= !mask;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_order_prefers_low_indices() {
        let arb = MatrixArbiter::new(4);
        assert_eq!(arb.grant(&[2, 1, 3]), Some(1));
        assert_eq!(arb.grant(&[0, 1, 2, 3]), Some(0));
    }

    #[test]
    fn update_moves_winner_to_back() {
        let mut arb = MatrixArbiter::new(3);
        assert_eq!(arb.grant(&[0, 1, 2]), Some(0));
        arb.update(0);
        assert_eq!(arb.grant(&[0, 1, 2]), Some(1));
        arb.update(1);
        assert_eq!(arb.grant(&[0, 1, 2]), Some(2));
        arb.update(2);
        // Back to the original order: least recently granted first.
        assert_eq!(arb.grant(&[0, 1, 2]), Some(0));
    }

    #[test]
    fn grant_without_update_is_stable() {
        let arb = MatrixArbiter::new(5);
        for _ in 0..3 {
            assert_eq!(arb.grant(&[4, 3]), Some(3));
        }
    }

    #[test]
    fn with_order_seeds_exact_priorities() {
        // The paper's Fig. 4 initial state on L1: 15 > 11 > 7 > 3 (we use a
        // 4-entry arbiter with that relative order).
        let arb = MatrixArbiter::with_order(&[3, 2, 1, 0]);
        assert_eq!(arb.grant(&[0, 1, 2, 3]), Some(3));
        assert_eq!(arb.priority_order(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn empty_requests_grant_nothing() {
        let arb = MatrixArbiter::new(4);
        assert_eq!(arb.grant(&[]), None);
    }

    #[test]
    fn single_requestor_always_wins() {
        let mut arb = MatrixArbiter::new(8);
        arb.update(5);
        assert_eq!(arb.grant(&[5]), Some(5));
    }

    #[test]
    fn lrg_order_emerges_from_grants() {
        // Repeatedly granting all requestors cycles through them.
        let mut arb = MatrixArbiter::new(4);
        let mut sequence = Vec::new();
        for _ in 0..8 {
            let w = arb.grant(&[0, 1, 2, 3]).unwrap();
            arb.update(w);
            sequence.push(w);
        }
        assert_eq!(sequence, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_requests_are_ignored() {
        let arb = MatrixArbiter::new(4);
        assert_eq!(arb.grant(&[2, 2, 3, 3]), Some(2));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn with_order_rejects_duplicates() {
        let _ = MatrixArbiter::with_order(&[0, 0, 1]);
    }

    /// Property test at radices straddling the word boundary (17, 33,
    /// 63, 65 plus exact-word sizes): random request sets and random
    /// LRG updates, with `grant_words` checked against `grant_mask`
    /// every step and the row tail invariant held throughout.
    #[test]
    fn grant_words_matches_grant_mask_across_awkward_radices() {
        use crate::rng::{Rng, SeedableRng, StdRng};

        fn check<const W: usize>(n: usize, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arb = MatrixArbiter::new(n);
            for step in 0..500 {
                let mut words = [0u64; W];
                let mut mask = BitSet::new(n);
                // Mix sparse and dense request sets.
                let requestors = if step % 3 == 0 { n } else { n / 4 + 1 };
                for _ in 0..rng.gen_range(0..requestors + 1) {
                    let r = rng.gen_range(0..n);
                    words[r / 64] |= 1 << (r % 64);
                    mask.insert(r);
                }
                let expected = arb.grant_mask(&mask);
                assert_eq!(arb.grant_words::<W>(&words), expected, "n={n} step={step}");
                if let Some(winner) = expected {
                    arb.update(winner);
                }
                // Row tail invariant: no priority bits at or beyond n.
                if !n.is_multiple_of(64) {
                    let tail = !((1u64 << (n % 64)) - 1);
                    for row in 0..n {
                        assert_eq!(
                            arb.row(row)[W - 1] & tail,
                            0,
                            "stray tail bits in row {row}"
                        );
                    }
                }
            }
        }

        for (n, seed) in [(13, 1u64), (16, 2), (17, 3), (33, 4), (63, 5), (64, 6)] {
            check::<1>(n, 0xA5B1_7000 + seed);
        }
        for (n, seed) in [(65, 7u64), (128, 8)] {
            check::<2>(n, 0xA5B1_7000 + seed);
        }
    }

    /// A bank of arbiters, including a seeded one and one with
    /// two-word rows, grants and updates exactly as standalone
    /// arbiters do, and its arbiters never disturb each other.
    #[test]
    fn bank_arbiters_match_standalone_arbiters() {
        use crate::rng::{Rng, SeedableRng, StdRng};
        for n in [5, 65] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut bank = MatrixBank::new(3, n);
            let mut solo: Vec<MatrixArbiter> = (0..3).map(|_| MatrixArbiter::new(n)).collect();
            let order: Vec<usize> = (0..n).rev().collect();
            bank.seed(1, &order);
            solo[1] = MatrixArbiter::with_order(&order);
            for _ in 0..300 {
                let i = rng.gen_range(0..3);
                let mut mask = BitSet::new(n);
                for _ in 0..rng.gen_range(1..n + 1) {
                    mask.insert(rng.gen_range(0..n));
                }
                let winner = solo[i].grant_mask(&mask);
                assert_eq!(bank.grant_mask(i, &mask), winner, "n={n}");
                let winner = winner.expect("non-empty mask");
                bank.update(i, winner);
                solo[i].update(winner);
                for (j, arb) in solo.iter().enumerate() {
                    assert_eq!(bank.arbiter(j).words, arb.words, "n={n} arbiter {j}");
                }
            }
        }
    }

    #[test]
    fn antisymmetry_is_preserved_by_updates() {
        let mut arb = MatrixArbiter::new(6);
        for winner in [3, 1, 4, 1, 5, 0, 2] {
            arb.update(winner);
            for a in 0..6 {
                for b in 0..6 {
                    if a != b {
                        assert_ne!(
                            arb.outranks(a, b),
                            arb.outranks(b, a),
                            "antisymmetry violated for ({a},{b})"
                        );
                    }
                }
            }
        }
    }
}
