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

    /// Word-level [`grant`](Self::grant) at any width: the request vector
    /// is a bitmask (`words[i / 64] >> (i % 64) & 1` is requester `i`).
    /// Semantically identical to `grant` over the expanded bool slice —
    /// same winner, same rotation, no rotation when nothing is requested.
    /// The simulator's own arbiters all fit
    /// [`grant_word`](Self::grant_word), which this delegates to when it
    /// can.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `ceil(n / 64)` words. Bits at
    /// positions `>= n` must be clear.
    pub fn grant_words(&mut self, words: &[u64]) -> Option<usize> {
        if let ([reqs], 1..=64) = (words, self.n) {
            return self.grant_word(*reqs);
        }
        let winner = self.peek_words(words)?;
        self.next = if winner + 1 == self.n { 0 } else { winner + 1 };
        Some(winner)
    }

    /// Like [`grant_words`](Self::grant_words) but without rotating the
    /// priority.
    pub fn peek_words(&self, words: &[u64]) -> Option<usize> {
        assert_eq!(
            words.len(),
            self.n.div_ceil(64),
            "request vector width mismatch"
        );
        if self.n == 0 {
            return None;
        }
        let (start_w, start_b) = (self.next / 64, self.next % 64);
        // Requesters at or above the priority pointer, lowest first: the
        // tail of the pointer's word, then every later word.
        let hi = words[start_w] & (!0u64 << start_b);
        if hi != 0 {
            return Some(start_w * 64 + hi.trailing_zeros() as usize);
        }
        for (i, &w) in words.iter().enumerate().skip(start_w + 1) {
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        // Wrap: words below the pointer's word, then the bits below the
        // pointer within its own word.
        for (i, &w) in words.iter().enumerate().take(start_w) {
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        let lo = if start_b == 0 {
            0
        } else {
            words[start_w] & ((1u64 << start_b) - 1)
        };
        if lo != 0 {
            return Some(start_w * 64 + lo.trailing_zeros() as usize);
        }
        None
    }

    /// Current priority position (the requester checked first).
    pub fn priority(&self) -> usize {
        self.next
    }

    /// Forces the priority position (used by schemes that reset scan
    /// order, e.g. the prime router always starting at the request
    /// injection queue, §Qn2).
    pub fn set_priority(&mut self, p: usize) {
        self.next = if self.n == 0 { 0 } else { p % self.n };
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
    fn set_priority_wraps() {
        let mut rr = RoundRobin::new(4);
        rr.set_priority(6);
        assert_eq!(rr.priority(), 2);
        assert_eq!(rr.grant(&[true, true, true, true]), Some(2));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut rr = RoundRobin::new(2);
        let _ = rr.grant(&[true]);
    }

    fn pack(bools: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bools.len().div_ceil(64)];
        for (i, &b) in bools.iter().enumerate() {
            if b {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        words
    }

    #[test]
    fn grant_words_matches_grant_bitwise() {
        // Exhaustive-ish cross-check at widths straddling word
        // boundaries: both arbiters must agree on every winner and on the
        // priority pointer after every step, including idle steps.
        for n in [1usize, 3, 60, 64, 65, 128, 320] {
            let mut a = RoundRobin::new(n);
            let mut b = RoundRobin::new(n);
            // Deterministic pseudo-request pattern (xorshift, fixed seed).
            let mut s: u64 = 0x9E37_79B9_7F4A_7C15 ^ n as u64;
            for step in 0..200 {
                let reqs: Vec<bool> = (0..n)
                    .map(|i| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        // Mix sparse, dense and empty vectors.
                        (s >> (i % 64)) & 0b11 == (step % 4) as u64
                    })
                    .collect();
                let words = pack(&reqs);
                assert_eq!(
                    a.grant(&reqs),
                    b.grant_words(&words),
                    "winner diverged at n={n} step={step}"
                );
                assert_eq!(a.priority(), b.priority(), "pointer diverged at n={n}");
            }
        }
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
                    let (mut a, mut b, mut c) =
                        (RoundRobin::new(n), RoundRobin::new(n), RoundRobin::new(n));
                    a.set_priority(start);
                    b.set_priority(start);
                    c.set_priority(start);
                    let want = a.grant(&bools);
                    assert_eq!(b.grant_word(reqs), want, "n={n} start={start} {reqs:#b}");
                    assert_eq!(b.priority(), a.priority(), "pointer, n={n} start={start}");
                    // The frozen multi-word entry point lands on it.
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
    fn grant_words_wraps_below_pointer() {
        let mut rr = RoundRobin::new(130);
        rr.set_priority(100);
        // Only requester 3 (below the pointer, in an earlier word).
        let mut words = vec![0u64; 3];
        words[0] = 1 << 3;
        assert_eq!(rr.grant_words(&words), Some(3));
        assert_eq!(rr.priority(), 4);
    }

    #[test]
    fn grant_words_no_rotation_when_idle() {
        let mut rr = RoundRobin::new(70);
        rr.set_priority(5);
        assert_eq!(rr.grant_words(&[0, 0]), None);
        assert_eq!(rr.priority(), 5, "no rotation on idle");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn grant_words_width_mismatch_panics() {
        let mut rr = RoundRobin::new(65);
        let _ = rr.grant_words(&[0]);
    }
}
