//! The hedged multi-party swap (§7), as a configuration of the generic
//! [`crate::deal`] engine.
//!
//! A multi-party swap is a strongly-connected digraph whose vertices are
//! parties and whose arcs are transfers of each sender's own token. Leaders
//! form a feedback vertex set; escrow premiums follow Equation (2) and
//! redemption premiums Equation (1).

use std::collections::BTreeSet;

use chainsim::{Amount, PartyId};
use swapgraph::{premiums, Digraph, Vertex};

use crate::deal::{ArcSpec, DealConfig};

/// Builds a [`DealConfig`] for a multi-party swap over `digraph` with the
/// given leaders, per-arc principal `amount` and base premium `p`.
///
/// Each party `v` trades its own token (`token-v`), minted in sufficient
/// quantity for all of its outgoing arcs; each arc's contract lives on the
/// sender's chain (`chain-v`).
///
/// # Panics
///
/// Panics if `leaders` is not a valid leader set for `digraph` (not a
/// feedback vertex set of a strongly connected digraph).
pub fn swap_config(
    digraph: &Digraph,
    leaders: &BTreeSet<Vertex>,
    amount: Amount,
    base_premium: Amount,
    delta_blocks: u64,
) -> DealConfig {
    digraph.validate_leaders(leaders).expect("leaders must form a feedback vertex set");
    let escrow_table = premiums::escrow_premium_table(digraph, leaders, 1)
        .expect("validated leader set computes escrow premiums");

    let chains: Vec<String> = digraph.vertices().map(|v| format!("chain-{v}")).collect();
    let mut arcs = Vec::new();
    for (u, v) in digraph.arcs() {
        arcs.push(ArcSpec {
            from: PartyId(u),
            to: PartyId(v),
            chain: format!("chain-{u}"),
            asset_name: format!("token-{u}"),
            amount,
            escrow_premium: base_premium.scaled(escrow_table[&(u, v)]),
        });
    }
    let endowments: Vec<(PartyId, String, String, Amount)> = digraph
        .vertices()
        .map(|v| {
            let out_degree = digraph.out_neighbors(v).len() as u128;
            (
                PartyId(v),
                format!("chain-{v}"),
                format!("token-{v}"),
                amount.scaled(out_degree.max(1)),
            )
        })
        .collect();
    let wait_for_incoming: BTreeSet<PartyId> =
        digraph.vertices().filter(|v| !leaders.contains(v)).map(PartyId).collect();

    let leader_parties: BTreeSet<PartyId> = leaders.iter().map(|&l| PartyId(l)).collect();
    let premium_float =
        DealConfig::premium_float_for(digraph, &leader_parties, &arcs, base_premium);
    DealConfig {
        digraph: digraph.clone(),
        leaders: leader_parties,
        chains,
        arcs,
        wait_for_incoming,
        base_premium,
        delta_blocks,
        endowments,
        premium_float,
        caches: Default::default(),
    }
}

/// The three-party swap of Figure 3a (A = 0 is the only leader), with unit
/// base premium and 100-token principals.
pub fn figure3_config() -> DealConfig {
    swap_config(&Digraph::figure3(), &BTreeSet::from([0]), Amount::new(100), Amount::new(1), 2)
}

/// A directed-cycle swap on `n` parties with party 0 as the leader.
pub fn cycle_config(n: u32) -> DealConfig {
    swap_config(&Digraph::cycle(n), &BTreeSet::from([0]), Amount::new(100), Amount::new(1), 2)
}

/// A complete-digraph (clique) swap on `n` parties: every ordered pair
/// trades, the paper's worst case for premium growth. Leaders are the
/// greedy feedback vertex set (`n - 1` parties on a clique).
pub fn clique_config(n: u32) -> DealConfig {
    digraph_config(&Digraph::complete(n))
}

/// A swap over a seeded random strongly-connected digraph on `n` parties
/// with `extra_arcs` arcs beyond the generated Hamiltonian cycle.
/// Deterministic in `(n, extra_arcs, seed)`.
pub fn random_config(n: u32, extra_arcs: usize, seed: u64) -> DealConfig {
    digraph_config(&Digraph::random_strongly_connected(n, extra_arcs, seed))
}

/// Builds a swap configuration for an arbitrary strongly-connected
/// `digraph`, electing the greedy feedback vertex set as leaders and using
/// the standard 100-token principals, unit base premium and Δ = 2.
///
/// # Panics
///
/// Panics if `digraph` is not strongly connected.
pub fn digraph_config(digraph: &Digraph) -> DealConfig {
    let leaders = digraph.greedy_feedback_vertex_set();
    swap_config(digraph, &leaders, Amount::new(100), Amount::new(1), 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{profile, Protocol, Strategy};
    use chainsim::World;
    use std::collections::BTreeMap;

    #[test]
    fn figure3_compliant_run_swaps_every_arc() {
        let report = figure3_config().run(&|_| Strategy::compliant(), &mut World::new(1));
        assert!(report.completed);
        assert!(report.all_compliant_hedged());
        assert_eq!(report.failed_actions, 0);
        // Everyone receives everything and pays no premium.
        for (party, outcome) in &report.parties {
            assert_eq!(outcome.premium_payoff, 0, "{party} should break even on premiums");
            assert_eq!(outcome.received, outcome.incoming_arcs);
            assert_eq!(outcome.escrowed_unredeemed, 0);
        }
    }

    #[test]
    fn carol_defecting_in_escrow_phase_compensates_the_others() {
        // Carol (2) deposits premiums but never escrows her asset: the
        // classic Figure 3 dilemma. Compliant Alice and Bob must stay hedged.
        let strategies = BTreeMap::from([(PartyId(2), Strategy::stop_after(2))]);
        let report = figure3_config().run(&profile(&strategies), &mut World::new(1));
        assert!(!report.completed);
        assert!(report.parties[&PartyId(0)].hedged, "Alice hedged: {report:?}");
        assert!(report.parties[&PartyId(0)].safety);
        assert!(report.parties[&PartyId(1)].hedged, "Bob hedged: {report:?}");
        assert!(report.parties[&PartyId(1)].safety);
        assert!(report.payoffs.conserved());
        // Carol, the deviator, pays out at least one base premium in total.
        assert!(report.parties[&PartyId(2)].premium_payoff < 0);
    }

    #[test]
    fn absent_leader_costs_compliant_followers_nothing_major() {
        // Alice (leader, 0) never participates at all.
        let strategies = BTreeMap::from([(PartyId(0), Strategy::stop_after(0))]);
        let report = figure3_config().run(&profile(&strategies), &mut World::new(1));
        assert!(!report.completed);
        for party in [PartyId(1), PartyId(2)] {
            assert!(report.parties[&party].hedged);
            assert!(report.parties[&party].safety);
            assert!(report.parties[&party].premium_payoff >= 0);
        }
    }

    #[test]
    fn every_unilateral_deviation_keeps_compliant_parties_hedged() {
        let config = figure3_config();
        for party in 0..3u32 {
            for stop_after in 0..5usize {
                let strategies =
                    BTreeMap::from([(PartyId(party), Strategy::stop_after(stop_after))]);
                let report = config.run(&profile(&strategies), &mut World::new(1));
                assert!(
                    report.all_compliant_hedged(),
                    "party {party} stopping after {stop_after} broke the hedge: {report:?}"
                );
                assert!(report.payoffs.conserved());
            }
        }
    }

    #[test]
    fn cycle_swap_completes_for_various_sizes() {
        for n in [2u32, 3, 4] {
            let report = cycle_config(n).run(&|_| Strategy::compliant(), &mut World::new(1));
            assert!(report.completed, "cycle of {n} should complete");
            assert!(report.all_compliant_hedged());
        }
    }

    #[test]
    fn clique_swap_completes_and_refunds_premiums() {
        for n in [3u32, 4] {
            let config = clique_config(n);
            assert_eq!(config.leaders.len(), n as usize - 1, "clique FVS is n-1 leaders");
            let report = config.run(&|_| Strategy::compliant(), &mut World::new(1));
            assert!(report.completed, "clique of {n} should complete: {report:?}");
            assert!(report.all_compliant_hedged());
            assert_eq!(report.failed_actions, 0);
            for (party, outcome) in &report.parties {
                assert_eq!(outcome.premium_payoff, 0, "{party} should break even");
            }
        }
    }

    #[test]
    fn random_digraph_swap_completes() {
        for seed in 0..4u64 {
            let config = random_config(4, 3, seed);
            let report = config.run(&|_| Strategy::compliant(), &mut World::new(1));
            assert!(report.completed, "seed {seed}: {report:?}");
            assert!(report.all_compliant_hedged());
            assert!(report.payoffs.conserved());
        }
    }

    /// Characterizes an open finding, tracked in the ROADMAP: on the seed-33
    /// random digraph with leaders {0, 1}, party 3 stopping after its
    /// escrow step (it never releases hashkeys) leaves compliant party 4
    /// with its escrow to party 1 refunded unredeemed and a premium payoff
    /// of 0, below the base premium p = 1. This pins the broken verdict:
    /// once the finding is fixed, party 4 is hedged and this test fails —
    /// flip its assertions then.
    #[test]
    fn random_digraph_seed_33_leaves_a_compliant_party_unhedged() {
        let config = random_config(5, 4, 33);
        assert_eq!(config.leaders, BTreeSet::from([PartyId(0), PartyId(1)]));
        let strategies = BTreeMap::from([(PartyId(3), Strategy::stop_after(3))]);
        let report = config.run(&profile(&strategies), &mut World::new(1));
        let victim = &report.parties[&PartyId(4)];
        assert!(!victim.hedged, "the finding is fixed: {report:?}");
        assert_eq!(victim.premium_payoff, 0);
        assert!(victim.escrowed_unredeemed > 0);
        assert!(report.payoffs.conserved());
    }

    #[test]
    #[should_panic(expected = "feedback vertex set")]
    fn invalid_leader_set_is_rejected() {
        let _ = swap_config(
            &Digraph::figure3(),
            &BTreeSet::from([2]),
            Amount::new(1),
            Amount::new(1),
            1,
        );
    }
}
