//! Parity tests for the symmetry + partial-order reduction layer: on small
//! graphs the reduced sweeps must be **exact** — every profile the reduction
//! skips is replayed brute-force here and compared against the executed
//! canonical representative (field-for-field per-party outcomes, mapped
//! through the witnessing automorphism), and POR-pruned profiles must
//! uphold the §7 properties outright. Mirrors the replay-oracle suite's
//! differential structure.

use std::collections::BTreeMap;

use chainsim::{PartyId, TraceMode, World};
use modelcheck::engine::{ParallelSweep, ScenarioGen};
use modelcheck::scenarios::DealSweep;
use protocols::deal::{run_deal_shared, DealConfig, DealPartyOutcome};
use protocols::multi_party::{clique_config, cycle_config, random_config};
use protocols::script::{Prefix, Strategy};

/// One run's comparable core: completion plus per-party outcomes. The
/// outcome fields (payoff, escrow tallies, hedged/safety verdicts) are all
/// party-local, so relabeling parties through an automorphism must carry
/// them verbatim.
type RunCore = (bool, BTreeMap<PartyId, DealPartyOutcome>);

fn run_core(
    world: &mut World,
    config: &DealConfig,
    profile: &BTreeMap<PartyId, Strategy>,
    cache: &mut Option<Prefix<DealConfig>>,
) -> RunCore {
    let report = run_deal_shared(world, config, profile, cache);
    (report.completed, report.parties)
}

/// Replays the *entire* unreduced two-deviator space of `config` and checks
/// every profile against the reduced sweep's verdict:
///
/// - a profile with a canonical representative must produce byte-identical
///   per-party outcomes once parties are mapped through the witnessing
///   automorphism;
/// - a POR-pruned profile (no representative) must uphold the hedged,
///   safety and stranded-principal guarantees for its compliant parties
///   directly — the reduction may only skip profiles whose verdict is
///   already implied.
fn assert_reduced_sweep_is_exact(name: &str, config: DealConfig) {
    let reduced = DealSweep::reduced(name, config.clone(), 2);
    let unreduced = DealSweep::at_most(name, config.clone(), 2);
    assert_eq!(reduced.strategies(), unreduced.total(), "{name}: documented space");

    let mut world = World::with_trace(1, TraceMode::Off);
    let mut cache = None;
    let reps: Vec<RunCore> = (0..reduced.total())
        .map(|index| run_core(&mut world, &config, &reduced.profile(index), &mut cache))
        .collect();

    let mut pruned = 0usize;
    for index in 0..unreduced.total() {
        let profile = unreduced.profile(index);
        let (completed, parties) = run_core(&mut world, &config, &profile, &mut cache);
        match reduced.canonicalize(&profile) {
            Some((rep, perm)) => {
                let (rep_completed, rep_parties) = &reps[rep];
                assert_eq!(completed, *rep_completed, "{name}: {profile:?}");
                for (party, outcome) in &parties {
                    let image = PartyId(perm[&party.0]);
                    assert_eq!(
                        format!("{outcome:?}"),
                        format!("{:?}", rep_parties[&image]),
                        "{name}: {profile:?} party {party} vs representative {rep} party {image}"
                    );
                }
            }
            None => {
                assert!(
                    reduced.por_pruned(&profile),
                    "{name}: {profile:?} has no representative yet was not POR-pruned"
                );
                pruned += 1;
                for (party, outcome) in &parties {
                    let compliant =
                        profile.get(party).copied().unwrap_or(Strategy::compliant()).is_compliant();
                    assert!(
                        !compliant
                            || (outcome.hedged && outcome.safety && outcome.escrowed_stuck == 0),
                        "{name}: pruned profile {profile:?} violates §7 for {party}: {outcome:?}"
                    );
                }
            }
        }
    }
    assert_eq!(pruned, reduced.pruned_strategies(), "{name}: pruned tally");
}

/// The non-trivial-symmetry branch: a 3-clique's leader stabilizer has
/// order 2, folding leader relabelings and unordered leader strategy pairs.
#[test]
fn clique_reduction_is_exact() {
    assert_reduced_sweep_is_exact("clique-3", clique_config(3));
}

/// The symmetry-free branch: a 4-cycle's pinned leader kills every
/// rotation, so the entire saving is partial-order reduction over the two
/// non-adjacent party pairs — every pruned profile is replayed here.
#[test]
fn cycle_por_pruning_is_exact() {
    assert_reduced_sweep_is_exact("cycle-4", cycle_config(4));
}

/// Engine-level parity on graphs covering both branches plus a generic
/// random digraph: the reduced sweeps hold, document exactly the unreduced
/// closed form, and are thread-invariant.
#[test]
fn reduced_summaries_account_for_the_full_space() {
    for (name, config, must_reduce) in [
        ("clique-4", clique_config(4), true),
        ("cycle-5", cycle_config(5), true),
        // Dense enough that every party pair is adjacent and the group is
        // trivial: the reduced sweep legitimately degenerates to the
        // unreduced one, and the accounting must still balance.
        ("random-4-3-7", random_config(4, 3, 7), false),
    ] {
        let deviating = protocols::deal::strategy_space().len() - 1;
        let reduced = DealSweep::reduced(name, config.clone(), 2);
        let expected =
            modelcheck::scenarios::bounded_profile_count(config.parties().len(), deviating, 2);
        assert_eq!(reduced.strategies(), expected, "{name}");
        let serial = ParallelSweep::new(1).run(&reduced);
        assert!(serial.holds(), "{name}: {:?}", serial.violations);
        assert_eq!(serial.runs, reduced.total(), "{name}");
        assert_eq!(serial.strategies, expected, "{name}");
        if must_reduce {
            assert!(serial.runs < serial.strategies, "{name}: reduction must actually reduce");
        } else {
            assert_eq!(serial.runs, serial.strategies, "{name}");
        }
        let parallel = ParallelSweep::new(4).chunk_size(16).run(&reduced);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"), "{name}");
    }
}
