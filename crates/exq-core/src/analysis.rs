//! Security analysis: candidate counting, attack simulation, and belief
//! tracking.
//!
//! The paper's security argument is counting-based: given what the attacker
//! sees (ciphertext database + metadata), how many indistinguishable
//! candidate plaintext databases are there, and does observing more (the
//! metadata, a query stream) let the attacker shrink the set or shift
//! probability mass? This module computes those counts *exactly* with big
//! integers and complements them with operational attack simulators.

pub mod counting {
    //! Exact candidate-database counts for Theorems 4.1, 5.1, and 5.2.

    use exq_crypto::bignum::{binomial, multinomial, BigUint};

    /// Theorem 4.1: with per-value occurrence frequencies `k₁…kₙ` and decoy
    /// encryption (every ciphertext distinct), the number of candidate
    /// plaintext→ciphertext mappings is the multinomial
    /// `(Σkᵢ)! / Πkᵢ!`.
    pub fn encryption_candidates(frequencies: &[u64]) -> BigUint {
        multinomial(frequencies)
    }

    /// Theorem 5.1: an encryption block with `n` leaf nodes represented by
    /// `k` grouped intervals admits `C(n−1, k−1)` leaf-to-interval
    /// assignments; over `m` blocks the candidates multiply.
    pub fn structural_candidates(blocks: &[(u64, u64)]) -> BigUint {
        let mut out = BigUint::one();
        for &(n_leaves, k_intervals) in blocks {
            if n_leaves == 0 || k_intervals == 0 {
                continue;
            }
            out = out.mul(&binomial(n_leaves - 1, k_intervals - 1));
        }
        out
    }

    /// Theorem 5.2: mapping `k` distinct plaintext values onto `n` distinct
    /// ciphertext values order-preservingly admits `C(n−1, k−1)` splittings.
    pub fn value_candidates(n_ciphertexts: u64, k_plaintexts: u64) -> BigUint {
        if n_ciphertexts == 0 || k_plaintexts == 0 || k_plaintexts > n_ciphertexts {
            return BigUint::zero();
        }
        binomial(n_ciphertexts - 1, k_plaintexts - 1)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The paper's worked example: k=(3,4,5) → 27 720 candidates.
        #[test]
        fn theorem41_example() {
            assert_eq!(encryption_candidates(&[3, 4, 5]).to_u64(), Some(27_720));
        }

        /// The paper's worked example: n=15, k=5 → C(14,4) = 1001.
        #[test]
        fn theorem52_example() {
            assert_eq!(value_candidates(15, 5).to_u64(), Some(1001));
        }

        /// The paper's Figure 5 example: a block with 7 leaves in 3
        /// intervals has C(6,2) = 15 candidate structures.
        #[test]
        fn theorem51_example() {
            assert_eq!(structural_candidates(&[(7, 3)]).to_u64(), Some(15));
            // Two blocks multiply.
            assert_eq!(
                structural_candidates(&[(7, 3), (15, 5)]).to_u64(),
                Some(15 * 1001)
            );
        }

        #[test]
        fn degenerate_counts() {
            assert_eq!(encryption_candidates(&[5]).to_u64(), Some(1));
            assert_eq!(structural_candidates(&[]).to_u64(), Some(1));
            assert_eq!(structural_candidates(&[(1, 1)]).to_u64(), Some(1));
            assert_eq!(value_candidates(5, 6).to_u64(), Some(0));
            assert_eq!(value_candidates(5, 5).to_u64(), Some(1));
        }

        #[test]
        fn counts_grow_exponentially() {
            // "Large means exponential": log10 of the count grows linearly
            // in the number of values.
            let small = encryption_candidates(&[2; 5]);
            let large = encryption_candidates(&[2; 50]);
            assert!(large.approx_log10() > 10.0 * small.approx_log10());
        }
    }
}

pub mod attack {
    //! Operational simulations of the §3.3 attack model.
    //!
    //! The frequency-based attacker knows the exact plaintext histogram and
    //! observes the ciphertext histogram. A plaintext value whose occurrence
    //! count is unique on both sides yields a *claimed* crack; with ground
    //! truth available we also score whether the claim is *correct* — under
    //! OPESS the matching ciphertext frequency, when one coincidentally
    //! exists, almost never belongs to the claimed value.

    use std::collections::HashMap;

    /// One observed ciphertext histogram entry.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CipherEntry {
        /// Occurrence count the attacker observes.
        pub freq: u64,
        /// Ground-truth owner id (caller-defined identity of the plaintext
        /// value this ciphertext actually encodes); `None` when unknown.
        pub owner: Option<u64>,
    }

    /// Outcome of a frequency-based attack.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FrequencyAttackOutcome {
        /// Values the attacker links to a unique ciphertext frequency.
        pub claimed: usize,
        /// Claims that are actually right (requires ground truth).
        pub correct: usize,
        /// Total distinct plaintext values.
        pub total: usize,
    }

    impl FrequencyAttackOutcome {
        pub fn success_rate(&self) -> f64 {
            if self.total == 0 {
                0.0
            } else {
                self.correct as f64 / self.total as f64
            }
        }
    }

    /// Runs the frequency-matching attack. `plain` maps an owner id to its
    /// exact occurrence count.
    pub fn frequency_attack(
        plain: &HashMap<u64, u64>,
        cipher: &[CipherEntry],
    ) -> FrequencyAttackOutcome {
        let mut plain_freq_count: HashMap<u64, usize> = HashMap::new();
        for &c in plain.values() {
            *plain_freq_count.entry(c).or_default() += 1;
        }
        let mut cipher_by_freq: HashMap<u64, Vec<&CipherEntry>> = HashMap::new();
        for e in cipher {
            cipher_by_freq.entry(e.freq).or_default().push(e);
        }
        let mut claimed = 0;
        let mut correct = 0;
        for (&owner, &count) in plain {
            if plain_freq_count[&count] != 1 {
                continue;
            }
            let Some(matches) = cipher_by_freq.get(&count) else {
                continue;
            };
            if matches.len() == 1 {
                claimed += 1;
                if matches[0].owner == Some(owner) {
                    correct += 1;
                }
            }
        }
        FrequencyAttackOutcome {
            claimed,
            correct,
            total: plain.len(),
        }
    }

    /// Convenience for string-keyed histograms: owners are assigned by
    /// enumeration; cipher entries carry the owning plaintext (or `None`
    /// when unknown).
    pub fn frequency_attack_strings(
        plain: &HashMap<String, usize>,
        cipher: &[(u64, Option<String>)],
    ) -> FrequencyAttackOutcome {
        let ids: HashMap<&str, u64> = plain
            .keys()
            .enumerate()
            .map(|(i, k)| (k.as_str(), i as u64))
            .collect();
        let plain_ids: HashMap<u64, u64> = plain
            .iter()
            .map(|(k, &c)| (ids[k.as_str()], c as u64))
            .collect();
        let cipher_entries: Vec<CipherEntry> = cipher
            .iter()
            .map(|(freq, owner)| CipherEntry {
                freq: *freq,
                owner: owner.as_deref().and_then(|o| ids.get(o).copied()),
            })
            .collect();
        frequency_attack(&plain_ids, &cipher_entries)
    }

    /// The ground-truth ciphertext histogram an attacker reads off an OPESS
    /// value index: one entry per ciphertext with
    /// `freq = chunk occurrences × scale`, annotated with the plaintext
    /// value that actually owns it.
    pub fn opess_cipher_histogram(
        attr: &crate::encrypt::OpessAttr,
        plain: &HashMap<String, usize>,
    ) -> Vec<(u64, Option<String>)> {
        let mut owner_of: HashMap<u64, &String> = HashMap::new();
        for k in plain.keys() {
            if let Some(x) = attr.codec.encode(k) {
                owner_of.insert(x.to_bits(), k);
            }
        }
        attr.plan
            .entries()
            .iter()
            .flat_map(|e| {
                let owner = owner_of.get(&e.plaintext.to_bits()).map(|s| s.to_string());
                e.chunks
                    .iter()
                    .map(move |c| (c.occurrences as u64 * e.scale as u64, owner.clone()))
            })
            .collect()
    }

    /// Simulates the size-based attack: the attacker eliminates candidate
    /// databases whose encrypted size differs from the observed one.
    /// Returns the indices of surviving candidates.
    pub fn size_attack(candidate_sizes: &[usize], observed: usize) -> Vec<usize> {
        candidate_sizes
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| (s == observed).then_some(i))
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn hist(pairs: &[(&str, usize)]) -> HashMap<String, usize> {
            pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        }

        /// Deterministic per-leaf encryption preserves frequencies and
        /// owners: every uniquely-frequent value is cracked correctly.
        #[test]
        fn naive_encryption_cracks() {
            let plain = hist(&[("leukemia", 1), ("diarrhea", 2), ("flu", 5)]);
            let cipher = [
                (1u64, Some("leukemia".to_owned())),
                (2, Some("diarrhea".to_owned())),
                (5, Some("flu".to_owned())),
            ];
            let out = frequency_attack_strings(&plain, &cipher);
            assert_eq!(out.claimed, 3);
            assert_eq!(out.correct, 3);
            assert_eq!(out.success_rate(), 1.0);
        }

        /// OPESS-flattened histograms give the attacker nothing to match.
        #[test]
        fn flattened_histogram_resists() {
            let plain = hist(&[("leukemia", 1), ("diarrhea", 2), ("flu", 5)]);
            let cipher = [
                (2u64, Some("flu".to_owned())),
                (3, Some("flu".to_owned())),
                (3, Some("diarrhea".to_owned())),
                (2, Some("leukemia".to_owned())),
                (3, Some("flu".to_owned())),
            ];
            let out = frequency_attack_strings(&plain, &cipher);
            assert_eq!(out.correct, 0);
        }

        /// A coincidental frequency match claims a crack but is wrong.
        #[test]
        fn coincidental_match_is_incorrect() {
            let plain = hist(&[("a", 6), ("b", 10)]);
            // One scaled chunk of `b` happens to have frequency 6.
            let cipher = [
                (6u64, Some("b".to_owned())),
                (5, Some("b".to_owned())),
                (3, Some("a".to_owned())),
                (3, Some("a".to_owned())),
            ];
            let out = frequency_attack_strings(&plain, &cipher);
            assert_eq!(out.claimed, 1);
            assert_eq!(out.correct, 0);
        }

        /// Equal plaintext frequencies are never cracked even naively.
        #[test]
        fn ambiguous_frequencies_safe() {
            let plain = hist(&[("a", 3), ("b", 3)]);
            let out = frequency_attack_strings(
                &plain,
                &[(3, Some("a".to_owned())), (3, Some("b".to_owned()))],
            );
            assert_eq!(out.claimed, 0);
        }

        #[test]
        fn size_attack_filters() {
            assert_eq!(size_attack(&[10, 12, 10, 9], 10), [0, 2]);
            assert!(size_attack(&[1, 2], 3).is_empty());
        }
    }
}

pub mod belief {
    //! Belief tracking for secure query answering (Theorem 6.1).
    //!
    //! The attacker watches translated queries and responses and maintains,
    //! for a captured association query `A` and block `B`, the belief
    //! `Bel(B(A))` that `B` satisfies `A`. The theorem's argument: before
    //! any query the prior over which of `k` plaintext values associates
    //! with a given visible value is `1/k`; after observing a translated
    //! query the attacker learns only that *some* ciphertext band was
    //! probed, and the number of order-preserving splittings consistent
    //! with the observation is `C(n−1, k−1) ≥ k`, so the belief moves to
    //! `1/C(n−1, k−1)` and stays there.

    use exq_crypto::bignum::BigUint;

    /// The belief sequence of an attacker observing a query stream.
    #[derive(Debug, Clone)]
    pub struct BeliefTracker {
        /// Distinct plaintext values of the probed attribute.
        k_plain: u64,
        /// Distinct ciphertext values in the observed value index.
        n_cipher: u64,
        beliefs: Vec<f64>,
    }

    impl BeliefTracker {
        /// Starts with the prior `1/k`.
        pub fn new(k_plain: u64, n_cipher: u64) -> BeliefTracker {
            assert!(k_plain >= 1 && n_cipher >= k_plain);
            BeliefTracker {
                k_plain,
                n_cipher,
                beliefs: vec![1.0 / k_plain as f64],
            }
        }

        /// Records one observed query+response; returns the new belief.
        pub fn observe_query(&mut self) -> f64 {
            let splittings = super::counting::value_candidates(self.n_cipher, self.k_plain);
            let denom = big_to_f64_at_least(&splittings, self.k_plain as f64);
            let new_belief = 1.0 / denom;
            let prev = *self.beliefs.last().unwrap();
            // Theorem 6.1: the belief never increases.
            self.beliefs.push(new_belief.min(prev));
            new_belief.min(prev)
        }

        /// The full belief sequence (index 0 = prior).
        pub fn sequence(&self) -> &[f64] {
            &self.beliefs
        }

        /// Checks the Theorem 6.1 property.
        pub fn is_non_increasing(&self) -> bool {
            self.beliefs.windows(2).all(|w| w[1] <= w[0] + 1e-12)
        }
    }

    fn big_to_f64_at_least(v: &BigUint, floor: f64) -> f64 {
        let f = v.to_f64();
        if f.is_finite() && f >= 1.0 {
            f.max(floor)
        } else {
            f64::MAX
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn belief_never_increases() {
            let mut t = BeliefTracker::new(5, 15);
            for _ in 0..50 {
                t.observe_query();
            }
            assert!(t.is_non_increasing());
            assert_eq!(t.sequence().len(), 51);
        }

        /// First observation drops belief from 1/k to 1/C(n−1,k−1).
        #[test]
        fn first_query_drops_to_splitting_count() {
            let mut t = BeliefTracker::new(5, 15);
            let b = t.observe_query();
            assert!((b - 1.0 / 1001.0).abs() < 1e-12);
            assert!(b <= 1.0 / 5.0);
        }

        /// With n = k (no splitting possible) the belief stays at the prior.
        #[test]
        fn degenerate_no_splitting() {
            let mut t = BeliefTracker::new(4, 4);
            let b = t.observe_query();
            assert!((b - 0.25).abs() < 1e-12);
            assert!(t.is_non_increasing());
        }
    }
}
