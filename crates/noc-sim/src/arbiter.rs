//! Round-robin arbitration.

/// A rotating-priority (round-robin) arbiter over `n` requesters.
///
/// Round-robin is the paper's arbitration policy both for switch
/// allocation in regular routers and for the prime router's scan over
/// input buffers (§III-C2).
///
/// # Example
///
/// ```
/// use noc_sim::arbiter::RoundRobin;
/// let mut rr = RoundRobin::new(4);
/// assert_eq!(rr.grant(&[true, true, false, false]), Some(0));
/// // Priority rotates past the winner.
/// assert_eq!(rr.grant(&[true, true, false, false]), Some(1));
/// assert_eq!(rr.grant(&[true, true, false, false]), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    next: usize,
    n: usize,
}

impl RoundRobin {
    /// Creates an arbiter over `n` requesters with priority starting at 0.
    pub fn new(n: usize) -> Self {
        RoundRobin { next: 0, n }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the arbiter has zero requesters (degenerate).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Grants the highest-priority asserted request and rotates priority
    /// just past the winner. Returns `None` when nothing is requested.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len()` differs from the arbiter width.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector width mismatch");
        let winner = self.peek(requests)?;
        // `winner < n`, so the rotation wraps exactly when the last
        // requester wins — a compare, not a runtime modulo.
        self.next = if winner + 1 == self.n { 0 } else { winner + 1 };
        Some(winner)
    }

    /// Like [`grant`](Self::grant) but without rotating the priority.
    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        (0..self.n)
            .map(|k| (self.next + k) % self.n)
            .find(|&i| requests[i])
    }

    /// Single-word [`grant`](Self::grant) for arbiters over at most 64
    /// requesters: bit `i` of `reqs` is requester `i`, as in the arena's
    /// switch-request words. Semantically identical to `grant` over the
    /// expanded bool slice — same winner, same rotation, no rotation when
    /// nothing is requested — in two masks and a `trailing_zeros`.
    ///
    /// # Panics
    ///
    /// Panics if the arbiter has more than 64 requesters. Bits at
    /// positions `>= n` must be clear.
    #[inline]
    pub fn grant_word(&mut self, reqs: u64) -> Option<usize> {
        assert!(self.n <= 64, "grant_word on an arbiter wider than one word");
        debug_assert!(
            self.n == 64 || reqs >> self.n == 0,
            "request bit beyond the arbiter width"
        );
        if reqs == 0 {
            return None;
        }
        // Requesters at or above the priority pointer win lowest-first;
        // with none there the scan wraps to the lowest requester overall.
        // (`reqs != 0` implies `n > 0`, so `next < n <= 64` is a valid
        // shift.)
        let at_or_above = reqs & (!0u64 << self.next);
        let pick = if at_or_above != 0 { at_or_above } else { reqs };
        let winner = pick.trailing_zeros() as usize;
        self.next = if winner + 1 == self.n { 0 } else { winner + 1 };
        Some(winner)
    }

    /// Slice form of [`grant_word`](Self::grant_word). Every arbiter in
    /// the simulator fits one word (`VcArena::new` asserts
    /// `NUM_PORTS * vcs <= 64`), so there is no multi-word path.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly one word, and as `grant_word`
    /// does.
    pub fn grant_words(&mut self, words: &[u64]) -> Option<usize> {
        assert_eq!(words.len(), 1, "request vector width mismatch");
        self.grant_word(words[0])
    }

    /// Current priority position (the requester checked first).
    pub fn priority(&self) -> usize {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_nothing_when_idle() {
        let mut rr = RoundRobin::new(3);
        assert_eq!(rr.grant(&[false, false, false]), None);
        assert_eq!(rr.priority(), 0, "no rotation on idle");
    }

    #[test]
    fn rotates_fairly() {
        let mut rr = RoundRobin::new(3);
        let all = [true, true, true];
        let seq: Vec<_> = (0..6).map(|_| rr.grant(&all).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skips_idle_requesters() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.grant(&[false, false, true, false]), Some(2));
        assert_eq!(rr.grant(&[true, false, true, false]), Some(0));
        assert_eq!(rr.grant(&[true, false, true, false]), Some(2));
    }

    #[test]
    fn fairness_under_sustained_load() {
        let mut rr = RoundRobin::new(5);
        let mut counts = [0usize; 5];
        for _ in 0..1000 {
            let w = rr.grant(&[true; 5]).unwrap();
            counts[w] += 1;
        }
        assert!(counts.iter().all(|&c| c == 200), "{counts:?}");
    }

    #[test]
    fn peek_does_not_rotate() {
        let rr = RoundRobin::new(3);
        assert_eq!(rr.peek(&[false, true, true]), Some(1));
        assert_eq!(rr.peek(&[false, true, true]), Some(1));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut rr = RoundRobin::new(2);
        let _ = rr.grant(&[true]);
    }

    /// An arbiter over `n` whose priority pointer sits at `start`.
    fn rotated_to(n: usize, start: usize) -> RoundRobin {
        let mut rr = RoundRobin::new(n);
        let mut just_below = vec![false; n];
        just_below[(start + n - 1) % n] = true;
        rr.grant(&just_below);
        assert_eq!(rr.priority(), start);
        rr
    }

    #[test]
    fn grant_word_matches_grant_at_every_pointer_position() {
        for n in [1usize, 5, 20, 60, 64] {
            let width_mask = if n == 64 { !0u64 } else { (1u64 << n) - 1 };
            let mut s: u64 = 0x2545_F491_4F6C_DD1D ^ n as u64;
            for start in 0..n {
                // Empty, single-bit (at, just below and just above the
                // pointer), full and pseudo-random request words.
                let mut cases = vec![
                    0,
                    width_mask,
                    1 << start,
                    1 << ((start + 1) % n),
                    1 << ((start + n - 1) % n),
                ];
                for _ in 0..12 {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    cases.push(s & (s >> 9) & width_mask);
                    cases.push(s & width_mask);
                }
                for reqs in cases {
                    let bools: Vec<bool> = (0..n).map(|i| reqs >> i & 1 != 0).collect();
                    let mut a = rotated_to(n, start);
                    let (mut b, mut c) = (a.clone(), a.clone());
                    let want = a.grant(&bools);
                    assert_eq!(b.grant_word(reqs), want, "n={n} start={start} {reqs:#b}");
                    assert_eq!(b.priority(), a.priority(), "pointer, n={n} start={start}");
                    // The slice entry point lands on it.
                    assert_eq!(c.grant_words(&[reqs]), want);
                    assert_eq!(c.priority(), a.priority());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "wider than one word")]
    fn grant_word_rejects_wide_arbiters() {
        let _ = RoundRobin::new(65).grant_word(1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn grant_words_takes_exactly_one_word() {
        let _ = RoundRobin::new(64).grant_words(&[0, 0]);
    }
}
