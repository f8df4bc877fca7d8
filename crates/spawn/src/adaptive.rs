//! Online (adaptive) spawning: runtime gate parameters, the per-pair
//! scoreboard, and the `scoreboard` / `conf-gated` wrapper schemes.
//!
//! Every other scheme in this crate is offline — it reads a profile trace
//! and emits a static [`SpawnTable`]. The adaptive family keeps the table
//! but attaches an [`AdaptivePolicy`] the simulator consults *while
//! running*: a per-pair squash scoreboard that permanently demotes pairs
//! whose speculative threads keep squashing (after Prophet's slice-quality
//! feedback), and a branch-predictor confidence gate that declines spawns
//! issued from a unit whose recent predictions are unreliable (after
//! Durbhakula's branch-prediction optimizations for multithreaded
//! processors). Both are deterministic functions of the simulated
//! execution, so runs stay bit-identical at any `--jobs` width.
//!
//! The runtime state itself ([`AdaptiveState`]) lives here rather than in
//! the simulator so its transition function can be tested — and
//! property-tested for monotonicity — without running a simulation.

use crate::pair::SpawnTable;
use crate::scheme::{SchemeError, SchemeParams, SpawnScheme};
use specmt_store::{Fingerprint, FingerprintHasher};
use specmt_trace::Trace;

/// Default squash-counter threshold of the builtin `scoreboard` scheme.
pub const DEFAULT_DEMOTE_THRESHOLD: u8 = 2;

/// Default confidence level of the builtin `conf-gated` scheme: spawns are
/// declined while fewer than this many of the unit's last 8 conditional
/// branches predicted correctly. Tuned on the tiny-scale drift study
/// (`fig_adaptation`): 3 recovers the drifted m88ksim without starving the
/// well-transferring benchmarks.
pub const DEFAULT_CONFIDENCE_THRESHOLD: u8 = 3;

/// Runtime gate parameters attached to a [`SpawnTable`] by an adaptive
/// scheme. A table without one (`SpawnTable::adaptive()` returning `None`,
/// the state of every offline scheme's output) simulates exactly as before
/// this type existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptivePolicy {
    /// Demote a pair permanently once its saturating squash counter (+1
    /// per squash, −1 per commit, floor 0) reaches this value. `None`
    /// disables the scoreboard.
    pub demote_threshold: Option<u8>,
    /// Decline spawns from a thread unit whose confidence level — correct
    /// predictions among its last 8 conditional branches — is below this
    /// value. `None` or `Some(0)` disables the gate (level is never
    /// negative, so a threshold of 0 can never decline; the engine treats
    /// the two identically and a 0-threshold run is bit-identical to the
    /// base scheme).
    pub confidence_threshold: Option<u8>,
}

impl AdaptivePolicy {
    /// Whether this policy can ever influence a spawn decision. Inactive
    /// policies leave the engine on the exact same code path as a table
    /// with no policy at all.
    pub fn is_active(&self) -> bool {
        self.demote_threshold.is_some() || self.confidence_threshold.is_some_and(|t| t > 0)
    }
}

serde::impl_serde_struct!(AdaptivePolicy {
    demote_threshold,
    confidence_threshold,
});

impl Fingerprint for AdaptivePolicy {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        h.struct_tag("AdaptivePolicy");
        match self.demote_threshold {
            None => h.none(),
            Some(t) => {
                h.some();
                h.u64(u64::from(t));
            }
        }
        match self.confidence_threshold {
            None => h.none(),
            Some(t) => {
                h.some();
                h.u64(u64::from(t));
            }
        }
    }
}

/// The runtime pair scoreboard: per-pair spawn/squash/commit tallies with
/// deterministic saturating-counter demotion.
///
/// Each pair carries a counter incremented on squash and decremented
/// (floor 0) on commit. The first time a pair's counter reaches the
/// threshold it is demoted — permanently for the rest of the run, so a
/// pair that keeps paying squash penalties stops being spawned no matter
/// how well it once did. Both transition functions are monotone in the
/// current counter value, which makes demotion monotone in the squash
/// history: inserting extra squashes anywhere in a pair's event sequence
/// can only demote it sooner, never rescue it (property-tested in
/// `tests/adaptive_properties.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveState {
    threshold: u8,
    counters: Vec<u8>,
    demoted: Vec<bool>,
    spawns: Vec<u64>,
    squashes: Vec<u64>,
    commits: Vec<u64>,
    demotions: u64,
}

impl AdaptiveState {
    /// A scoreboard over `num_pairs` pairs (dense ids, matching the
    /// simulator's interned pair arena) demoting at `threshold`. A
    /// threshold of 0 would demote every pair before its first spawn;
    /// it is clamped to 1.
    pub fn new(num_pairs: usize, threshold: u8) -> AdaptiveState {
        AdaptiveState {
            threshold: threshold.max(1),
            counters: vec![0; num_pairs],
            demoted: vec![false; num_pairs],
            spawns: vec![0; num_pairs],
            squashes: vec![0; num_pairs],
            commits: vec![0; num_pairs],
            demotions: 0,
        }
    }

    /// Records a successful spawn of `pair`.
    pub fn record_spawn(&mut self, pair: usize) {
        self.spawns[pair] += 1;
    }

    /// Records a committed thread of `pair`, cooling its counter.
    pub fn record_commit(&mut self, pair: usize) {
        self.commits[pair] += 1;
        self.counters[pair] = self.counters[pair].saturating_sub(1);
    }

    /// Records a squashed thread of `pair`; returns `true` exactly when
    /// this squash newly demotes the pair.
    pub fn record_squash(&mut self, pair: usize) -> bool {
        self.squashes[pair] += 1;
        self.counters[pair] = self.counters[pair].saturating_add(1);
        if !self.demoted[pair] && self.counters[pair] >= self.threshold {
            self.demoted[pair] = true;
            self.demotions += 1;
            return true;
        }
        false
    }

    /// Whether `pair` has been demoted.
    pub fn is_demoted(&self, pair: usize) -> bool {
        self.demoted[pair]
    }

    /// Current squash counter of `pair`.
    pub fn counter(&self, pair: usize) -> u8 {
        self.counters[pair]
    }

    /// Total pairs demoted so far.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Lifetime `(spawns, squashes, commits)` tallies of `pair`.
    pub fn tallies(&self, pair: usize) -> (u64, u64, u64) {
        (self.spawns[pair], self.squashes[pair], self.commits[pair])
    }

    /// Number of pairs tracked.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the scoreboard tracks no pairs.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// Builds the one-line description shared by both wrapper schemes.
fn wrap_describe(what: &str, threshold: u8, base: &dyn SpawnScheme) -> String {
    format!(
        "{what} (threshold {threshold}) over the `{}` scheme",
        base.name()
    )
}

/// Runs the wrapped scheme's selection and attaches `policy` to its table.
fn wrap_select(
    base: &dyn SpawnScheme,
    policy: AdaptivePolicy,
    trace: &Trace,
    params: &SchemeParams,
) -> Result<SpawnTable, SchemeError> {
    Ok(base.select(trace, params)?.with_adaptive(policy))
}

/// The `scoreboard` scheme: any base scheme's pairs, demoted at runtime
/// once they accumulate `threshold` net squashes.
#[derive(Debug)]
pub struct ScoreboardScheme {
    base: Box<dyn SpawnScheme>,
    threshold: u8,
}

impl ScoreboardScheme {
    /// Wraps `base` with a squash scoreboard demoting at `threshold`.
    pub fn new(base: Box<dyn SpawnScheme>, threshold: u8) -> ScoreboardScheme {
        ScoreboardScheme { base, threshold }
    }
}

impl SpawnScheme for ScoreboardScheme {
    fn name(&self) -> &str {
        "scoreboard"
    }

    fn describe(&self) -> String {
        wrap_describe(
            "runtime pair scoreboard demoting squash-prone pairs",
            self.threshold,
            self.base.as_ref(),
        )
    }

    fn select(&self, trace: &Trace, params: &SchemeParams) -> Result<SpawnTable, SchemeError> {
        let policy = AdaptivePolicy {
            demote_threshold: Some(self.threshold),
            confidence_threshold: None,
        };
        wrap_select(self.base.as_ref(), policy, trace, params)
    }

    // Cacheable exactly when the base is: the produced table is a pure
    // function of the base's table plus the threshold, both named here.
    fn cache_identity(&self) -> Option<String> {
        self.base
            .cache_identity()
            .map(|b| format!("scoreboard[t={}]/{b}", self.threshold))
    }
}

/// The `conf-gated` scheme: any base scheme's pairs, with spawns gated on
/// the spawning unit's branch-predictor confidence.
#[derive(Debug)]
pub struct ConfGatedScheme {
    base: Box<dyn SpawnScheme>,
    threshold: u8,
}

impl ConfGatedScheme {
    /// Wraps `base` with a confidence gate at `threshold` (0 disables the
    /// gate, making this scheme bit-identical to `base`).
    pub fn new(base: Box<dyn SpawnScheme>, threshold: u8) -> ConfGatedScheme {
        ConfGatedScheme { base, threshold }
    }
}

impl SpawnScheme for ConfGatedScheme {
    fn name(&self) -> &str {
        "conf-gated"
    }

    fn describe(&self) -> String {
        wrap_describe(
            "branch-predictor confidence gating of spawns",
            self.threshold,
            self.base.as_ref(),
        )
    }

    fn select(&self, trace: &Trace, params: &SchemeParams) -> Result<SpawnTable, SchemeError> {
        let policy = AdaptivePolicy {
            demote_threshold: None,
            confidence_threshold: Some(self.threshold),
        };
        wrap_select(self.base.as_ref(), policy, trace, params)
    }

    fn cache_identity(&self) -> Option<String> {
        self.base
            .cache_identity()
            .map(|b| format!("conf-gated[t={}]/{b}", self.threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_policies_are_recognised() {
        assert!(!AdaptivePolicy::default().is_active());
        assert!(!AdaptivePolicy {
            demote_threshold: None,
            confidence_threshold: Some(0)
        }
        .is_active());
        assert!(AdaptivePolicy {
            demote_threshold: Some(1),
            confidence_threshold: None
        }
        .is_active());
        assert!(AdaptivePolicy {
            demote_threshold: None,
            confidence_threshold: Some(1)
        }
        .is_active());
    }

    #[test]
    fn policy_round_trips_through_serde() {
        for policy in [
            AdaptivePolicy::default(),
            AdaptivePolicy {
                demote_threshold: Some(3),
                confidence_threshold: None,
            },
            AdaptivePolicy {
                demote_threshold: Some(2),
                confidence_threshold: Some(6),
            },
        ] {
            let s = serde_json::to_string(&policy).expect("serialize");
            let back: AdaptivePolicy = serde_json::from_str(&s).expect("deserialize");
            assert_eq!(policy, back);
        }
    }

    #[test]
    fn policy_fields_are_fingerprinted() {
        let digests: Vec<String> = [
            AdaptivePolicy::default(),
            AdaptivePolicy {
                demote_threshold: Some(2),
                confidence_threshold: None,
            },
            AdaptivePolicy {
                demote_threshold: Some(3),
                confidence_threshold: None,
            },
            AdaptivePolicy {
                demote_threshold: None,
                confidence_threshold: Some(2),
            },
            AdaptivePolicy {
                demote_threshold: Some(2),
                confidence_threshold: Some(2),
            },
        ]
        .iter()
        .map(|p| p.digest().hex())
        .collect();
        let mut unique = digests.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(
            unique.len(),
            digests.len(),
            "policy digests collide: {digests:?}"
        );
    }

    #[test]
    fn scoreboard_demotes_at_threshold_and_stays_demoted() {
        let mut sb = AdaptiveState::new(2, 2);
        assert!(!sb.record_squash(0));
        assert!(!sb.is_demoted(0));
        assert!(sb.record_squash(0), "second squash crosses the threshold");
        assert!(sb.is_demoted(0));
        // Further squashes report no *new* demotion; commits cannot rescue.
        assert!(!sb.record_squash(0));
        sb.record_commit(0);
        sb.record_commit(0);
        assert!(sb.is_demoted(0));
        assert_eq!(sb.demotions(), 1);
        assert!(!sb.is_demoted(1), "other pairs are untouched");
    }

    #[test]
    fn commits_cool_the_counter_before_demotion() {
        let mut sb = AdaptiveState::new(1, 2);
        assert!(!sb.record_squash(0));
        sb.record_commit(0); // back to 0
        assert!(!sb.record_squash(0)); // 1 again: still below 2
        assert!(!sb.is_demoted(0));
        assert!(sb.record_squash(0));
        assert_eq!(sb.tallies(0), (0, 3, 1));
    }

    #[test]
    fn zero_threshold_is_clamped_to_one() {
        let mut sb = AdaptiveState::new(1, 0);
        assert!(!sb.is_demoted(0), "no pair is pre-demoted");
        assert!(
            sb.record_squash(0),
            "first squash demotes at the clamped threshold"
        );
    }
}
