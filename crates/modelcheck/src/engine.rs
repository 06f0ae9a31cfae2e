//! The generic parallel sweep engine.
//!
//! A [`ScenarioGen`] describes a family of independently checkable
//! scenarios — typically one joint strategy profile per scenario — through
//! a random-access index space. The [`ParallelSweep`] fans those indices
//! out over a pool of scoped worker threads that pull chunks from a shared
//! atomic cursor (idle workers steal the next unclaimed chunk the moment
//! they finish one, so an expensive scenario never stalls the rest of the
//! sweep), and merges the results back **in index order**, so the resulting
//! [`CheckSummary`] is bit-for-bit identical no matter how many threads ran
//! the sweep.
//!
//! # Worker-local state: worlds and family slots
//!
//! Each worker owns a single *scratch* [`chainsim::World`] plus one
//! [`FamilyScratch`] slot per family, and hands both to every scenario
//! it runs. The world is reset (or snapshot-restored) rather than rebuilt,
//! so ledgers and contract stores are allocated once per worker. Every
//! family runs its scenarios through one entry point,
//! [`FamilyScratch::run`]: the slot records the family's [`Prefix`] on
//! first use — the world right after setup
//! ([`chainsim::World::snapshot`]) and the compliant scripts — and every
//! later scenario restores that world instead of setting the protocol up
//! again.
//!
//! # Determinism contract
//!
//! `check(i, ..)` must depend only on `i`, `&self` and — for performance,
//! never for results — the worker-local scratch state. Snapshots restore
//! bit-identical world state, every profile's scripts fork from the
//! compliant ones at their start, and every cache entry memoises a pure
//! function, so a scenario's violations are identical whether its prefix
//! was shared or replayed, whatever worker ran it, in whatever order. This is pinned by
//! the differential tests in `tests/replay_oracle.rs`, which diff whole
//! summaries (and reports) between the default runner and
//! [`ParallelSweep::replay_oracle`] across thread counts.
//!
//! The only shared state is the immutable generator and the chunk cursor,
//! which is why the engine needs no locks and no dependencies beyond
//! `std::thread::scope`.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;
// staticcheck: allow(SC304) — the per-sweep chunk cursor below, the only
// state the workers share; results merge in index order.
use std::sync::atomic::{AtomicUsize, Ordering};

use chainsim::World;
use protocols::script::{Prefix, Profile, Protocol};

use crate::{CheckSummary, Violation};

/// A worker's slot for one family: whether the sweep replays every
/// scenario from scratch, and the prefixes recorded so far.
///
/// Each (worker, family) pair owns one slot, built by
/// [`ParallelSweep::scratch`], and every [`Protocol`] a family checks runs
/// through [`FamilyScratch::run`]. In the default mode a family's scenarios
/// resume from the compliant [`Prefix`] the slot records on first use; in
/// replay mode ([`ParallelSweep::replay_oracle`]) every scenario runs from
/// scratch and no prefix is recorded. Results are identical either way, and
/// for any prior slot contents: prefixes hold performance state only.
#[derive(Default)]
pub struct FamilyScratch {
    replay: bool,
    /// Recorded prefixes, keyed by type and the family's variant index.
    prefixes: BTreeMap<(TypeId, usize), Box<dyn Any + Send>>,
    recorded: usize,
}

impl FamilyScratch {
    /// Runs `profile` of `protocol` inside `world`: from scratch in replay
    /// mode, else resumed from this slot's prefix number `variant`, which is
    /// recorded from `protocol` on first use. A family whose scenarios run
    /// several protocol instances (the auction's auctioneer behaviours)
    /// gives each its own `variant`.
    pub fn run<P>(
        &mut self,
        protocol: &P,
        variant: usize,
        profile: Profile<'_>,
        world: &mut World,
    ) -> P::Report
    where
        P: Protocol + Clone + Send + 'static,
        P::Setup: Send + 'static,
    {
        if self.replay {
            return protocol.run(profile, world);
        }
        let FamilyScratch { prefixes, recorded, .. } = self;
        prefixes
            .entry((TypeId::of::<P>(), variant))
            .or_insert_with(|| {
                *recorded += 1;
                Box::new(Prefix::record(protocol.clone(), world))
            })
            .downcast_mut::<Prefix<P>>()
            .expect("prefixes are keyed by type")
            .run(profile, world)
    }

    /// The number of prefixes this slot has recorded.
    pub fn prefixes(&self) -> usize {
        self.recorded
    }
}

impl fmt::Debug for FamilyScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FamilyScratch")
            .field("replay", &self.replay)
            .field("prefixes", &self.recorded)
            .finish()
    }
}

/// A family of model-checking scenarios with random-access indexing.
///
/// Implementations must be cheap to index: `check(i, ..)` is called from
/// worker threads in arbitrary order and must depend only on `i`, `&self`
/// and the (reset) scratch state — never on mutable state that could alter
/// results — which is what makes sweeps deterministic.
pub trait ScenarioGen: Sync {
    /// Short human-readable name of the scenario family, used in reports.
    fn family(&self) -> String;

    /// The number of scenarios in this family.
    ///
    /// For full-product sweeps this is exactly the product of per-party
    /// strategy-space sizes; bounded-deviator sweeps document their own
    /// closed form. Either way, a sweep performs exactly `total()` runs.
    fn total(&self) -> usize;

    /// The number of joint strategy profiles this family *documents*.
    ///
    /// Defaults to [`total`](ScenarioGen::total): for unreduced families
    /// every documented profile is executed. Symmetry- and
    /// partial-order-reduced families return the full closed-form space
    /// size instead — each executed representative carries its orbit
    /// weight, and commuting-deviation profiles pruned without execution
    /// still count — so `strategies() >= total()` always, and summaries
    /// report coverage of the *unreduced* space.
    fn strategies(&self) -> usize {
        self.total()
    }

    /// Runs scenario `index` (`0 <= index < total()`) inside the worker's
    /// scratch world and returns every property violation it exhibits.
    ///
    /// The scratch world arrives in an arbitrary prior state; the scenario
    /// runs through `cache` ([`FamilyScratch::run`], which resets or
    /// restores the world) or resets it itself. `cache` is this worker's
    /// [`FamilyScratch`] for this family. The result must be identical for
    /// any prior state and any cache contents.
    fn check(&self, index: usize, scratch: &mut World, cache: &mut FamilyScratch)
        -> Vec<Violation>;
}

/// A deterministic parallel sweep runner.
///
/// # Examples
///
/// ```
/// use modelcheck::engine::ParallelSweep;
/// use modelcheck::scenarios::TwoPartySweep;
///
/// let gen = TwoPartySweep::hedged(Default::default());
/// let serial = ParallelSweep::new(1).run(&gen);
/// let parallel = ParallelSweep::new(4).run(&gen);
/// assert_eq!(serial.runs, 49 * 49, "the full per-party strategy product, squared");
/// assert!(serial.holds());
/// // Determinism: thread count never changes the summary.
/// assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ParallelSweep {
    threads: usize,
    /// Scenarios per steal; `None` auto-tunes per sweep (see
    /// [`ParallelSweep::chunk_size`] for the policy).
    chunk: Option<usize>,
    replay: bool,
}

impl Default for ParallelSweep {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

/// With auto-tuned chunks, each worker steals about this many chunks over a
/// sweep: enough steals that an unlucky worker can shed load to idle ones,
/// few enough that cursor traffic stays negligible and consecutive indices
/// (which share a family's recorded prefix) stay on one worker.
const TARGET_STEALS_PER_WORKER: usize = 8;

/// Auto-tuned chunks never exceed this, so even enormous families keep
/// stealing often enough to balance unequal scenario costs.
const MAX_AUTO_CHUNK: usize = 64;

impl ParallelSweep {
    /// Creates a sweep runner with a fixed worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a sweep needs at least one worker");
        ParallelSweep { threads, chunk: None, replay: false }
    }

    /// Creates a sweep runner sized to the machine.
    ///
    /// Uses every available hardware thread. Earlier revisions capped the
    /// pool at 8 workers because fixed per-run setup costs dominated small
    /// sweeps; with per-worker snapshot-sharing caches and auto-tuned chunk
    /// sizes the engine scales with the machine, so the cap is gone —
    /// scenario runs are CPU-bound, and `available_parallelism` is exactly
    /// the number of them that can make progress at once.
    pub fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        Self::new(threads)
    }

    /// Overrides the number of scenarios a worker claims per steal.
    ///
    /// Smaller chunks balance unequal scenario costs better; larger chunks
    /// reduce cursor contention and keep index-adjacent scenarios (which
    /// share a recorded prefix) on one worker. By default the chunk
    /// is auto-tuned per sweep to `total / (threads × 8)`, clamped to
    /// `1..=64` — about eight steals per worker. The result of the sweep is
    /// identical for every chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunks must hold at least one scenario");
        self.chunk = Some(chunk);
        self
    }

    /// Makes this runner the replay oracle: every scenario runs from
    /// scratch instead of resuming from a recorded prefix. Differential
    /// tests compare its summaries with the default runner's, which must be
    /// identical.
    pub fn replay_oracle(mut self) -> Self {
        self.replay = true;
        self
    }

    /// A fresh worker slot for one family, in this runner's mode (see
    /// [`FamilyScratch`]).
    pub fn scratch(&self) -> FamilyScratch {
        FamilyScratch { replay: self.replay, ..FamilyScratch::default() }
    }

    /// The number of worker threads this runner spawns.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The chunk size this runner would use for a sweep of `total`
    /// scenarios (auto-tuned unless overridden via
    /// [`ParallelSweep::chunk_size`]).
    pub fn effective_chunk(&self, total: usize) -> usize {
        self.chunk.unwrap_or_else(|| {
            (total / (self.threads * TARGET_STEALS_PER_WORKER)).clamp(1, MAX_AUTO_CHUNK)
        })
    }

    /// Sweeps a single scenario family.
    pub fn run(&self, gen: &dyn ScenarioGen) -> CheckSummary {
        self.run_all(&[gen])
    }

    /// Sweeps several scenario families as one work pool.
    ///
    /// Families share the worker pool (a long tail in one family is
    /// absorbed by workers finishing another), and the merged summary lists
    /// violations grouped by family, in each family's index order —
    /// independent of thread count and chunk size.
    pub fn run_all(&self, gens: &[&dyn ScenarioGen]) -> CheckSummary {
        // Concatenate the families into one global index space.
        let mut offsets = Vec::with_capacity(gens.len());
        let mut total = 0usize;
        let mut strategies = 0usize;
        for gen in gens {
            offsets.push(total);
            total += gen.total();
            strategies += gen.strategies();
        }

        // Workers claim chunks of one sweep's index space; the merge is in
        // index order, so no result depends on which worker claimed what.
        // staticcheck: allow(SC304) — the per-sweep chunk cursor.
        let cursor = AtomicUsize::new(0);
        let chunk = self.effective_chunk(total);
        // Never spawn more workers than there are chunks of work: surplus
        // workers would only pay the scratch-world and prefix-recording
        // setup to then go idle. Results are identical for any pool size.
        let workers = self.threads.min(total.div_ceil(chunk)).max(1);
        let sweep = *self;
        let mut found: Vec<(usize, Vec<Violation>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let offsets = &offsets;
                    scope.spawn(move || {
                        // One scratch world and one cache slot per family,
                        // per worker: every scenario this worker claims
                        // reuses their allocations and prefix caches.
                        let mut scratch = World::new(1);
                        let mut slots: Vec<FamilyScratch> =
                            gens.iter().map(|_| sweep.scratch()).collect();
                        let mut local: Vec<(usize, Vec<Violation>)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= total {
                                break;
                            }
                            for index in start..(start + chunk).min(total) {
                                let family = match offsets.binary_search(&index) {
                                    Ok(exact) => exact,
                                    Err(insert) => insert - 1,
                                };
                                let violations = gens[family].check(
                                    index - offsets[family],
                                    &mut scratch,
                                    &mut slots[family],
                                );
                                if !violations.is_empty() {
                                    local.push((index, violations));
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("sweep worker panicked"))
                .collect()
        });

        // Deterministic merge: global index order, regardless of which
        // worker ran which chunk.
        found.sort_by_key(|(index, _)| *index);
        CheckSummary {
            runs: total,
            strategies,
            violations: found.into_iter().flat_map(|(_, violations)| violations).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainsim::{PartyId, Tally};
    use protocols::script::{ScriptedParty, Step, StepOutcome, Strategy};

    /// A one-party protocol of `STEPS` empty steps; its report is the
    /// number of rounds the run took.
    #[derive(Clone)]
    struct Ticks<const STEPS: usize>;

    impl<const STEPS: usize> Protocol for Ticks<STEPS> {
        type Setup = ();
        type Report = usize;

        fn setup(&self, world: &mut World) {
            world.reset(1);
            world.add_chain("ticks");
        }
        fn script(&self, _: &(), profile: Profile<'_>) -> Vec<ScriptedParty> {
            let steps = (0..STEPS).map(|_| Step::new("tick", |_| StepOutcome::Complete(vec![])));
            vec![ScriptedParty::new(PartyId(0), steps.collect(), profile(PartyId(0)))]
        }
        fn max_rounds(&self, _: &()) -> u64 {
            16
        }
        fn report(&self, _: &World, _: &(), tally: Tally, _: Profile<'_>) -> usize {
            tally.rounds
        }
    }

    /// A synthetic family: scenario `i` violates iff `i` is divisible by 7.
    struct Synthetic {
        total: usize,
    }

    impl ScenarioGen for Synthetic {
        fn family(&self) -> String {
            "synthetic".into()
        }
        fn total(&self) -> usize {
            self.total
        }
        fn check(
            &self,
            index: usize,
            scratch: &mut World,
            cache: &mut FamilyScratch,
        ) -> Vec<Violation> {
            // Exercise the worker-local slot: its prefix must never
            // influence results.
            assert_eq!(cache.run(&Ticks::<2>, 0, &|_| Strategy::compliant(), scratch), 2);
            if index.is_multiple_of(7) {
                vec![Violation {
                    scenario: format!("synthetic #{index}"),
                    party: PartyId(index as u32),
                    property: "synthetic",
                }]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn sweep_is_deterministic_across_thread_and_chunk_counts() {
        let gen = Synthetic { total: 100 };
        let baseline = ParallelSweep::new(1).run(&gen);
        assert_eq!(baseline.runs, 100);
        assert_eq!(baseline.strategies, 100);
        assert_eq!(baseline.violations.len(), 15, "0, 7, …, 98");
        for threads in [2, 3, 8] {
            for chunk in [1, 4, 33, 1000] {
                let summary = ParallelSweep::new(threads).chunk_size(chunk).run(&gen);
                assert_eq!(format!("{summary:?}"), format!("{baseline:?}"));
            }
        }
    }

    #[test]
    fn auto_chunk_targets_a_handful_of_steals_per_worker() {
        let sweep = ParallelSweep::new(2);
        assert_eq!(sweep.effective_chunk(0), 1);
        assert_eq!(sweep.effective_chunk(16), 1);
        assert_eq!(sweep.effective_chunk(432), 27);
        assert_eq!(sweep.effective_chunk(1_000_000), 64, "clamped");
        assert_eq!(sweep.chunk_size(4).effective_chunk(1_000_000), 4, "override wins");
    }

    #[test]
    fn family_scratch_is_typed_and_reusable() {
        let mut world = World::new(1);
        let compliant = |_| Strategy::compliant();
        let stops = |_| Strategy::stop_after(1);
        let mut slot = ParallelSweep::new(1).scratch();
        assert_eq!(slot.run(&Ticks::<3>, 0, &compliant, &mut world), 3);
        assert_eq!(slot.run(&Ticks::<3>, 0, &stops, &mut world), 1, "resumed from the prefix");
        assert_eq!(slot.prefixes(), 1, "a recorded prefix is kept");
        assert_eq!(slot.run(&Ticks::<3>, 1, &stops, &mut world), 1);
        assert_eq!(slot.prefixes(), 2, "variants do not share prefixes");
        // Distinct types coexist in one slot without evicting each other.
        assert_eq!(slot.run(&Ticks::<2>, 0, &compliant, &mut world), 2);
        assert_eq!(slot.run(&Ticks::<3>, 0, &compliant, &mut world), 3);
        assert_eq!(slot.prefixes(), 3);
        assert!(format!("{slot:?}").contains("FamilyScratch"));
        // A replay slot runs from scratch and records nothing.
        let mut replay = ParallelSweep::new(1).replay_oracle().scratch();
        assert_eq!(replay.run(&Ticks::<3>, 0, &stops, &mut world), 1);
        assert_eq!(replay.prefixes(), 0);
    }

    #[test]
    fn run_all_concatenates_families_in_order() {
        let a = Synthetic { total: 10 };
        let b = Synthetic { total: 8 };
        let summary = ParallelSweep::new(4).run_all(&[&a, &b]);
        assert_eq!(summary.runs, 18);
        // Violations: family a at 0 and 7, then family b at 0 and 7.
        let parties: Vec<u32> = summary.violations.iter().map(|v| v.party.0).collect();
        assert_eq!(parties, vec![0, 7, 0, 7]);
    }

    #[test]
    fn empty_family_list_yields_empty_summary() {
        let summary = ParallelSweep::new(4).run_all(&[]);
        assert_eq!(summary.runs, 0);
        assert!(summary.holds());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        let _ = ParallelSweep::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one scenario")]
    fn zero_chunk_is_rejected() {
        let _ = ParallelSweep::new(1).chunk_size(0);
    }
}
