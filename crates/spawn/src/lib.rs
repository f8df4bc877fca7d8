//! # specmt-spawn
//!
//! Thread-spawning pair selection — the core contribution of
//! *Thread-Spawning Schemes for Speculative Multithreading* (Marcuello &
//! González, HPCA 2002).
//!
//! A *spawning pair* is two program points: the **spawning point** (SP),
//! which fires thread creation when fetched, and the **control
//! quasi-independent point** (CQIP), where the speculative thread begins.
//! This crate provides both families of selectors the paper evaluates:
//!
//! * [`profile_pairs`] — the paper's profile-based scheme (§3.1): build the
//!   dynamic CFG from a profile trace, prune to 90 % instruction coverage,
//!   compute reaching probabilities and expected distances, keep pairs with
//!   probability ≥ 0.95 and distance ≥ 32 instructions, rank alternative
//!   CQIPs per SP by one of three criteria (maximum distance, most
//!   independent instructions, most independent-or-predictable
//!   instructions), and finally inject call→return-point pairs that meet
//!   the size constraint.
//! * [`heuristic_pairs`] — the construct-based baselines: loop-iteration,
//!   loop-continuation and subroutine-continuation spawning, and their
//!   combination (the comparison policy of Figure 8).
//!
//! Both produce a [`SpawnTable`], the interface the simulator consumes.
//!
//! A third, *online* family wraps either of the above (see [`adaptive`]):
//! the `scoreboard` and `conf-gated` schemes attach an [`AdaptivePolicy`]
//! to the base scheme's table, and the simulator consults it at runtime —
//! demoting pairs whose threads keep squashing, and gating spawns on
//! branch-predictor confidence.
//!
//! Every selector family is also wrapped in an object-safe [`SpawnScheme`]
//! implementation and registered by name in [`SchemeRegistry::builtin`], so
//! experiments and tools address policies uniformly and custom policies
//! plug in alongside the built-ins (see [`scheme`]).
//!
//! # Examples
//!
//! ```
//! use specmt_trace::Trace;
//! use specmt_workloads::{ijpeg, Scale};
//! use specmt_spawn::{profile_pairs, ProfileConfig};
//!
//! // Small rather than Tiny: a 16-iteration loop's 15/16 self-reaching
//! // probability would fall just below the paper's 0.95 threshold.
//! let w = ijpeg(Scale::Small);
//! let trace = Trace::generate(w.program.clone(), w.step_budget)?;
//! let result = profile_pairs(&trace, &ProfileConfig::default());
//! assert!(result.table.num_pairs() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
mod heuristics;
mod memslice;
mod pair;
mod profile;
mod returns;
pub mod scheme;

/// Code revision of the pair-selection stage, a component of profile- and
/// spawn-table-namespace store keys. Bump when any selector's output
/// changes for identical inputs (new tie-breaks, scoring tweaks, ...).
pub const CODE_REV: u32 = 1;

pub use adaptive::{
    AdaptivePolicy, AdaptiveState, ConfGatedScheme, ScoreboardScheme, DEFAULT_CONFIDENCE_THRESHOLD,
    DEFAULT_DEMOTE_THRESHOLD,
};
pub use heuristics::{heuristic_pairs, HeuristicSet};
pub use memslice::{memslice_pairs, MemSliceConfig};
pub use pair::{PairOrigin, SpawnPair, SpawnTable};
pub use profile::{profile_pairs, OrderCriterion, ProfileConfig, ProfileResult};
pub use returns::{return_pairs, ReturnPairStats};
pub use scheme::{SchemeError, SchemeParams, SchemeRegistry, SpawnScheme, BUILTIN_SCHEME_NAMES};
