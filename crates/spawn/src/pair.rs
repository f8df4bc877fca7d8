//! Spawning pairs and the spawn table.

use std::collections::BTreeMap;

use specmt_isa::Pc;
use specmt_store::{Fingerprint, FingerprintHasher};

use crate::adaptive::AdaptivePolicy;

/// How a spawning pair was selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairOrigin {
    /// Selected by the profile-based reaching-probability analysis.
    Profile,
    /// Injected call→return-point pair (§3.1's final step).
    ReturnPair,
    /// Loop-iteration heuristic: the head of a loop spawns its next
    /// iteration.
    LoopIteration,
    /// Loop-continuation heuristic: the head of a loop spawns the code
    /// after the loop.
    LoopContinuation,
    /// Subroutine-continuation heuristic: a call spawns its return point.
    SubroutineContinuation,
    /// MEM-slicing (Codrescu & Wills): a recurring memory instruction
    /// spawns its next occurrence.
    MemSlice,
}

/// One spawning pair with its profile statistics and ranking score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpawnPair {
    /// The spawning point: reaching this instruction fires a spawn.
    pub sp: Pc,
    /// The control quasi-independent point: where the speculative thread
    /// starts (and the join point of its predecessor).
    pub cqip: Pc,
    /// Estimated probability of reaching `cqip` after `sp` before `sp`
    /// repeats.
    pub prob: f64,
    /// Expected dynamic instructions from `sp` to `cqip`.
    pub avg_dist: f64,
    /// Ranking score among alternatives with the same `sp` (higher is
    /// better); its meaning depends on the selection criterion.
    pub score: f64,
    /// Provenance.
    pub origin: PairOrigin,
}

/// The ordered set of spawning pairs a simulation runs with.
///
/// For each spawning point, alternative CQIPs are kept best-score-first; the
/// base policy uses only the first, while the paper's *reassign* policy
/// (§4.2) falls back to later candidates. Removal state is runtime state and
/// lives in the simulator, not here — the table itself is immutable.
///
/// # Examples
///
/// ```
/// use specmt_isa::Pc;
/// use specmt_spawn::{PairOrigin, SpawnPair, SpawnTable};
///
/// let mk = |sp, cqip, score| SpawnPair {
///     sp: Pc(sp), cqip: Pc(cqip), prob: 1.0, avg_dist: 40.0, score,
///     origin: PairOrigin::Profile,
/// };
/// let table = SpawnTable::from_pairs(vec![mk(3, 9, 1.0), mk(3, 7, 5.0)]);
/// assert_eq!(table.num_spawning_points(), 1);
/// // Best-scored candidate first.
/// assert_eq!(table.candidates(Pc(3))[0].cqip, Pc(7));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpawnTable {
    by_sp: BTreeMap<u32, Vec<SpawnPair>>,
    /// Runtime gate parameters attached by an adaptive scheme; `None` for
    /// every offline scheme's output.
    adaptive: Option<AdaptivePolicy>,
}

serde::impl_serde_enum!(PairOrigin {
    Profile,
    ReturnPair,
    LoopIteration,
    LoopContinuation,
    SubroutineContinuation,
    MemSlice,
});

serde::impl_serde_struct!(SpawnPair {
    sp,
    cqip,
    prob,
    avg_dist,
    score,
    origin,
});

// A table without a policy serialises as the bare pair array it always
// did, so every previously-written table document (and store entry) parses
// unchanged; a policy promotes the form to `{pairs, adaptive}`.
impl serde::Serialize for SpawnTable {
    fn to_value(&self) -> serde::Value {
        let pairs = serde::Serialize::to_value(&self.iter().copied().collect::<Vec<_>>());
        match &self.adaptive {
            None => pairs,
            Some(policy) => serde::Value::Object(vec![
                ("pairs".to_owned(), pairs),
                ("adaptive".to_owned(), serde::Serialize::to_value(policy)),
            ]),
        }
    }
}

// Deserialization funnels through `from_pairs` so loaded tables are always
// deduplicated and score-ordered, whatever the input claimed.
impl serde::Deserialize for SpawnTable {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let (pairs_value, adaptive) = match v {
            serde::Value::Object(_) => {
                let pairs = v.get("pairs").ok_or_else(|| {
                    serde::Error::custom("SpawnTable object form is missing `pairs`")
                })?;
                let policy = v
                    .get("adaptive")
                    .map(<AdaptivePolicy as serde::Deserialize>::from_value)
                    .transpose()?;
                (pairs, policy)
            }
            _ => (v, None),
        };
        let pairs = <Vec<SpawnPair> as serde::Deserialize>::from_value(pairs_value)?;
        let table = SpawnTable::from_pairs(pairs);
        Ok(match adaptive {
            Some(policy) => table.with_adaptive(policy),
            None => table,
        })
    }
}

impl Fingerprint for PairOrigin {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        h.str(match self {
            PairOrigin::Profile => "profile",
            PairOrigin::ReturnPair => "return-pair",
            PairOrigin::LoopIteration => "loop-iteration",
            PairOrigin::LoopContinuation => "loop-continuation",
            PairOrigin::SubroutineContinuation => "subroutine-continuation",
            PairOrigin::MemSlice => "mem-slice",
        });
    }
}

impl Fingerprint for SpawnPair {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        h.struct_tag("SpawnPair");
        h.u64(u64::from(self.sp.0));
        h.u64(u64::from(self.cqip.0));
        h.f64(self.prob);
        h.f64(self.avg_dist);
        h.f64(self.score);
        self.origin.fingerprint(h);
    }
}

// A table's fingerprint covers its full content in its deterministic
// (BTreeMap) order, so simulation results keyed on an *ad-hoc* table —
// ablation sweeps, custom schemes, hand-merged tables — are addressed by
// what the table actually contains, not by how it was produced.
impl Fingerprint for SpawnTable {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        h.struct_tag("SpawnTable");
        h.seq(self.num_pairs());
        for p in self.iter() {
            p.fingerprint(h);
        }
        // Policy-free tables keep the digest they had before the adaptive
        // field existed (no trailing `none` marker); a policy extends the
        // digest, so a gate-threshold change re-keys every simulation run
        // against the table.
        if let Some(policy) = &self.adaptive {
            h.some();
            policy.fingerprint(h);
        }
    }
}

impl SpawnTable {
    /// Creates an empty table (no spawning: single-threaded execution).
    pub fn empty() -> SpawnTable {
        SpawnTable::default()
    }

    /// Builds a table from a pair list: deduplicates `(sp, cqip)` keeping
    /// the higher score, groups by spawning point and sorts candidates by
    /// descending score (ties broken by ascending CQIP for determinism).
    pub fn from_pairs(pairs: Vec<SpawnPair>) -> SpawnTable {
        let mut by_sp: BTreeMap<u32, Vec<SpawnPair>> = BTreeMap::new();
        for p in pairs {
            let list = by_sp.entry(p.sp.0).or_default();
            if let Some(existing) = list.iter_mut().find(|e| e.cqip == p.cqip) {
                if p.score > existing.score {
                    *existing = p;
                }
            } else {
                list.push(p);
            }
        }
        for list in by_sp.values_mut() {
            list.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.cqip.cmp(&b.cqip)));
        }
        SpawnTable {
            by_sp,
            adaptive: None,
        }
    }

    /// Attaches runtime gate parameters (used by the adaptive schemes).
    #[must_use]
    pub fn with_adaptive(mut self, policy: AdaptivePolicy) -> SpawnTable {
        self.adaptive = Some(policy);
        self
    }

    /// The runtime gate parameters, if an adaptive scheme attached any.
    pub fn adaptive(&self) -> Option<&AdaptivePolicy> {
        self.adaptive.as_ref()
    }

    /// The ranked candidates for the spawning point `sp` (empty if `sp` is
    /// not a spawning point).
    pub fn candidates(&self, sp: Pc) -> &[SpawnPair] {
        self.by_sp.get(&sp.0).map_or(&[], Vec::as_slice)
    }

    /// Total number of pairs across all spawning points.
    pub fn num_pairs(&self) -> usize {
        self.by_sp.values().map(Vec::len).sum()
    }

    /// Number of distinct spawning points.
    pub fn num_spawning_points(&self) -> usize {
        self.by_sp.len()
    }

    /// Whether the table holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.by_sp.is_empty()
    }

    /// Iterates over all pairs, grouped by spawning point.
    pub fn iter(&self) -> impl Iterator<Item = &SpawnPair> + '_ {
        self.by_sp.values().flatten()
    }

    /// Merges two tables (re-running deduplication and ordering). The
    /// receiver's adaptive policy, if any, carries over; the other table's
    /// is dropped — merging is a pair-set operation, and two gate
    /// configurations have no meaningful union.
    pub fn merged(self, other: SpawnTable) -> SpawnTable {
        let mut pairs: Vec<SpawnPair> = self.iter().copied().collect();
        pairs.extend(other.iter().copied());
        let merged = SpawnTable::from_pairs(pairs);
        match self.adaptive {
            Some(policy) => merged.with_adaptive(policy),
            None => merged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(sp: u32, cqip: u32, score: f64) -> SpawnPair {
        SpawnPair {
            sp: Pc(sp),
            cqip: Pc(cqip),
            prob: 1.0,
            avg_dist: 40.0,
            score,
            origin: PairOrigin::Profile,
        }
    }

    #[test]
    fn empty_table_has_no_candidates() {
        let t = SpawnTable::empty();
        assert!(t.is_empty());
        assert!(t.candidates(Pc(0)).is_empty());
        assert_eq!(t.num_pairs(), 0);
    }

    #[test]
    fn candidates_sorted_by_score_then_cqip() {
        let t = SpawnTable::from_pairs(vec![
            mk(1, 10, 2.0),
            mk(1, 20, 5.0),
            mk(1, 30, 5.0),
            mk(2, 40, 1.0),
        ]);
        let c: Vec<u32> = t.candidates(Pc(1)).iter().map(|p| p.cqip.0).collect();
        assert_eq!(c, vec![20, 30, 10]);
        assert_eq!(t.num_spawning_points(), 2);
        assert_eq!(t.num_pairs(), 4);
    }

    #[test]
    fn duplicate_pairs_keep_higher_score() {
        let t = SpawnTable::from_pairs(vec![mk(1, 10, 2.0), mk(1, 10, 7.0), mk(1, 10, 3.0)]);
        assert_eq!(t.num_pairs(), 1);
        assert_eq!(t.candidates(Pc(1))[0].score, 7.0);
    }

    #[test]
    fn merged_combines_and_dedups() {
        let a = SpawnTable::from_pairs(vec![mk(1, 10, 2.0)]);
        let b = SpawnTable::from_pairs(vec![mk(1, 10, 9.0), mk(3, 30, 1.0)]);
        let m = a.merged(b);
        assert_eq!(m.num_pairs(), 2);
        assert_eq!(m.candidates(Pc(1))[0].score, 9.0);
    }

    #[test]
    fn iter_visits_every_pair() {
        let t = SpawnTable::from_pairs(vec![mk(1, 10, 1.0), mk(2, 20, 1.0), mk(2, 30, 2.0)]);
        assert_eq!(t.iter().count(), 3);
    }

    fn policy() -> AdaptivePolicy {
        AdaptivePolicy {
            demote_threshold: Some(2),
            confidence_threshold: Some(6),
        }
    }

    #[test]
    fn policy_free_tables_serialise_as_the_legacy_bare_array() {
        let t = SpawnTable::from_pairs(vec![mk(1, 10, 1.0)]);
        let v = serde::Serialize::to_value(&t);
        assert!(
            matches!(v, serde::Value::Array(_)),
            "legacy form must survive: {v:?}"
        );
        let s = serde_json::to_string(&t).expect("serialize");
        let back: SpawnTable = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(t, back);
        assert!(back.adaptive().is_none());
    }

    #[test]
    fn adaptive_tables_round_trip_with_their_policy() {
        let t =
            SpawnTable::from_pairs(vec![mk(1, 10, 1.0), mk(2, 20, 3.0)]).with_adaptive(policy());
        let s = serde_json::to_string(&t).expect("serialize");
        let back: SpawnTable = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(t, back);
        assert_eq!(back.adaptive(), Some(&policy()));
    }

    #[test]
    fn adaptive_policy_extends_the_fingerprint() {
        use specmt_store::Fingerprint;
        let bare = SpawnTable::from_pairs(vec![mk(1, 10, 1.0)]);
        let gated = bare.clone().with_adaptive(policy());
        let other = bare.clone().with_adaptive(AdaptivePolicy {
            demote_threshold: Some(3),
            confidence_threshold: Some(6),
        });
        assert_ne!(bare.digest().hex(), gated.digest().hex());
        assert_ne!(gated.digest().hex(), other.digest().hex());
    }

    #[test]
    fn merged_keeps_the_receivers_policy() {
        let a = SpawnTable::from_pairs(vec![mk(1, 10, 2.0)]).with_adaptive(policy());
        let b = SpawnTable::from_pairs(vec![mk(3, 30, 1.0)]).with_adaptive(AdaptivePolicy {
            demote_threshold: Some(9),
            confidence_threshold: None,
        });
        let m = a.merged(b);
        assert_eq!(m.num_pairs(), 2);
        assert_eq!(m.adaptive(), Some(&policy()));
    }
}
