//! Engine-agreement checking: every conflict-depth engine must agree.
//!
//! `cachedse-core` ships several ways to compute the per-level
//! conflict-depth profiles of §2.4 — the tree+table reference (`Bcat` +
//! `Mrct` + postlude sweep), the scratch-arena depth-first engine, its
//! size-aware parallel scheduler, and the default hybrid (depth-first above
//! a unique-count crossover, streamed fold below it). The whole point of
//! keeping them byte-identical is that callers (and the batch service's
//! engine-free cache key) may pick any of them freely. This checker
//! recomputes them from the stripped trace and reports any level where a
//! faster engine diverges from the reference. (The streamed fold has its
//! own checker, `check_streamed`.)

use std::num::NonZeroUsize;

use cachedse_core::{dfs, hybrid, postlude, Bcat, Mrct};
use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::strip::StrippedTrace;

use crate::report::{Invariant, Location, Violation};

/// Worker count pinned for the parallel engine during checking. Two workers
/// is the smallest count that exercises the work-queue path; the splitting
/// threshold is thread-count independent, so any pinning is representative.
const CHECK_WORKERS: usize = 2;

/// Recomputes the per-level [`DepthProfile`]s with the depth-first, parallel
/// depth-first and hybrid engines and returns one violation per `(engine,
/// level)` disagreement with the tree+table reference.
#[must_use]
pub fn check_engines(stripped: &StrippedTrace, max_index_bits: u32) -> Vec<Violation> {
    let bcat = Bcat::from_stripped(stripped, max_index_bits);
    let mrct = Mrct::build(stripped);
    let golden = postlude::level_profiles(&bcat, &mrct, stripped, max_index_bits);

    let serial = dfs::level_profiles(stripped, max_index_bits);
    let workers = NonZeroUsize::new(CHECK_WORKERS).expect("nonzero");
    let parallel = dfs::level_profiles_parallel(stripped, max_index_bits, workers);

    let hybrid = hybrid::level_profiles(stripped, max_index_bits);

    let mut violations = compare_profiles("depth-first", &serial, &golden);
    violations.extend(compare_profiles("depth-first-parallel", &parallel, &golden));
    violations.extend(compare_profiles("hybrid", &hybrid, &golden));
    violations
}

/// Diffs one engine's profiles against the reference, level by level.
fn compare_profiles(
    engine: &str,
    candidate: &[DepthProfile],
    golden: &[DepthProfile],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if candidate.len() != golden.len() {
        violations.push(Violation::new(
            Invariant::EngineDivergence,
            Location::Global,
            format!(
                "{engine}: produced {} level profile(s), reference has {}",
                candidate.len(),
                golden.len()
            ),
        ));
        return violations;
    }
    for (level, (got, want)) in candidate.iter().zip(golden).enumerate() {
        if got != want {
            let level = u32::try_from(level).expect("level fits u32");
            violations.push(Violation::new(
                Invariant::EngineDivergence,
                Location::Level(level),
                format!("{engine}: profile {got:?} differs from reference {want:?}"),
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_trace::{generate, paper_running_example};

    fn stripped(trace: &cachedse_trace::Trace) -> StrippedTrace {
        StrippedTrace::from_trace(trace)
    }

    #[test]
    fn paper_example_engines_agree() {
        let trace = paper_running_example();
        let s = stripped(&trace);
        assert!(check_engines(&s, s.address_bits()).is_empty());
    }

    #[test]
    fn workload_engines_agree() {
        let trace = generate::loop_with_excursions(7, 64, 31, 5, 1 << 11, 4);
        let s = stripped(&trace);
        assert!(check_engines(&s, s.address_bits()).is_empty());
    }

    /// A trace with more unique references than the hybrid's crossover,
    /// so the check exercises its depth-first levels and frontier folds,
    /// not just the root fold.
    #[test]
    fn hybrid_above_the_crossover_agrees() {
        let trace = generate::uniform_random(8_000, 4 * hybrid::CROSSOVER as u32, 12);
        let s = stripped(&trace);
        assert!(s.unique_len() > hybrid::CROSSOVER);
        assert!(check_engines(&s, s.address_bits()).is_empty());
    }

    #[test]
    fn divergent_profiles_are_reported_per_level() {
        let trace = paper_running_example();
        let s = stripped(&trace);
        let golden = {
            let bcat = Bcat::from_stripped(&s, s.address_bits());
            let mrct = Mrct::build(&s);
            postlude::level_profiles(&bcat, &mrct, &s, s.address_bits())
        };
        let mut corrupted = golden.clone();
        let last = corrupted.len() - 1;
        corrupted[last] = golden[0].clone();
        let violations = compare_profiles("depth-first", &corrupted, &golden);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::EngineDivergence);
        assert_eq!(
            violations[0].location,
            Location::Level(u32::try_from(last).unwrap())
        );
    }

    #[test]
    fn length_mismatch_is_a_single_global_violation() {
        let reference = DepthProfile::from_parts(1, Vec::new(), 0, 0);
        let violations = compare_profiles("depth-first", &[], &[reference]);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].location, Location::Global);
    }
}
