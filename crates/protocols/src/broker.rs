//! The hedged brokered-commerce deal of §8, as a [`crate::deal`] configuration.
//!
//! Alice brokers the sale of Bob's ticket to Carol: Bob escrows the ticket,
//! Carol escrows 101 coins, Alice performs the intermediate trades (a ticket
//! to Carol, 100 coins to Bob) and keeps the 1-coin spread. Every party is a
//! leader; Alice additionally waits for the escrow phase before her trading
//! transfers, which is the dependency structure of Figure 4b.
//!
//! **Substitution note.** The paper's broker trades with assets still under
//! escrow (a "deal" in the Herlihy–Liskov–Shrira sense). This reproduction
//! gives the broker working capital instead (one ticket and 100 coins of
//! float): the step dependencies, premium structure and sore-loser payoffs
//! are identical, only the broker's inventory financing differs.

use std::collections::BTreeSet;

use chainsim::{Amount, PartyId};
use swapgraph::{premiums, Digraph};

use crate::deal::{ArcSpec, DealConfig};

/// Every distinct per-party strategy of the brokered sale. The broker runs
/// on the generic deal engine, so its space is exactly
/// [`crate::deal::strategy_space`] — re-exported here so each protocol
/// module names its own swept space.
pub use crate::deal::strategy_space;

/// Alice, the broker.
pub const BROKER: PartyId = PartyId(0);
/// Bob, the ticket seller.
pub const SELLER: PartyId = PartyId(1);
/// Carol, the ticket buyer.
pub const BUYER: PartyId = PartyId(2);

/// Configuration knobs of the brokered sale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrokerConfig {
    /// What Carol pays for the ticket (101 coins in the paper).
    pub buyer_price: Amount,
    /// What Bob receives for the ticket (100 coins in the paper).
    pub seller_price: Amount,
    /// Number of tickets changing hands.
    pub tickets: Amount,
    /// The base premium `p`.
    pub base_premium: Amount,
    /// The synchrony bound Δ in blocks.
    pub delta_blocks: u64,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            buyer_price: Amount::new(101),
            seller_price: Amount::new(100),
            tickets: Amount::new(1),
            base_premium: Amount::new(1),
            delta_blocks: 2,
        }
    }
}

/// The Figure 4a digraph: (B,A), (C,A), (A,B), (A,C).
pub fn broker_digraph() -> Digraph {
    let mut g = Digraph::new();
    g.add_arc(SELLER.0, BROKER.0);
    g.add_arc(BUYER.0, BROKER.0);
    g.add_arc(BROKER.0, SELLER.0);
    g.add_arc(BROKER.0, BUYER.0);
    g
}

/// Builds the [`DealConfig`] for the brokered sale.
pub fn broker_deal_config(config: &BrokerConfig) -> DealConfig {
    let digraph = broker_digraph();
    let p = config.base_premium.value();
    let broker_premiums = premiums::broker_premiums(
        &digraph,
        &[(SELLER.0, BROKER.0), (BUYER.0, BROKER.0)],
        &[(BROKER.0, SELLER.0), (BROKER.0, BUYER.0)],
        p,
    );
    let premium = |table: &std::collections::BTreeMap<(u32, u32), u128>,
                   arc: (u32, u32)|
     -> Amount { Amount::new(*table.get(&arc).unwrap_or(&p)) };

    let arcs = vec![
        // Escrow phase: Bob's ticket and Carol's coins, both destined for Alice.
        ArcSpec {
            from: SELLER,
            to: BROKER,
            chain: "ticket-chain".to_owned(),
            asset_name: "ticket".to_owned(),
            amount: config.tickets,
            escrow_premium: premium(&broker_premiums.escrow, (SELLER.0, BROKER.0)),
        },
        ArcSpec {
            from: BUYER,
            to: BROKER,
            chain: "coin-chain".to_owned(),
            asset_name: "coin".to_owned(),
            amount: config.buyer_price,
            escrow_premium: premium(&broker_premiums.escrow, (BUYER.0, BROKER.0)),
        },
        // Trading phase: Alice's transfers, protected by trading premiums.
        ArcSpec {
            from: BROKER,
            to: SELLER,
            chain: "coin-chain".to_owned(),
            asset_name: "coin".to_owned(),
            amount: config.seller_price,
            escrow_premium: premium(&broker_premiums.trading, (BROKER.0, SELLER.0)),
        },
        ArcSpec {
            from: BROKER,
            to: BUYER,
            chain: "ticket-chain".to_owned(),
            asset_name: "ticket".to_owned(),
            amount: config.tickets,
            escrow_premium: premium(&broker_premiums.trading, (BROKER.0, BUYER.0)),
        },
    ];

    let endowments = vec![
        (SELLER, "ticket-chain".to_owned(), "ticket".to_owned(), config.tickets),
        (BUYER, "coin-chain".to_owned(), "coin".to_owned(), config.buyer_price),
        // The broker's working-capital float (see the substitution note above).
        (BROKER, "coin-chain".to_owned(), "coin".to_owned(), config.seller_price),
        (BROKER, "ticket-chain".to_owned(), "ticket".to_owned(), config.tickets),
    ];

    let leaders = BTreeSet::from([BROKER, SELLER, BUYER]);
    let premium_float =
        DealConfig::premium_float_for(&digraph, &leaders, &arcs, config.base_premium);
    DealConfig {
        digraph,
        leaders,
        chains: vec!["ticket-chain".to_owned(), "coin-chain".to_owned()],
        arcs,
        wait_for_incoming: BTreeSet::from([BROKER]),
        base_premium: config.base_premium,
        delta_blocks: config.delta_blocks,
        endowments,
        premium_float,
        caches: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{profile, Protocol, Strategy};
    use chainsim::World;
    use std::collections::BTreeMap;

    #[test]
    fn compliant_brokered_sale_completes_with_the_spread() {
        let config = BrokerConfig::default();
        let report =
            broker_deal_config(&config).run(&|_| Strategy::compliant(), &mut World::new(1));
        assert!(report.completed, "{report:?}");
        assert!(report.all_compliant_hedged());
        assert_eq!(report.failed_actions, 0);
        // Premiums all refunded.
        for outcome in report.parties.values() {
            assert_eq!(outcome.premium_payoff, 0);
        }
        // Coin flows: Carol pays 101, Bob receives 100, Alice keeps 1.
        let coin =
            report.payoffs.iter().filter(|(p, _, v)| *p == BUYER && v.value() == -101).count();
        assert!(coin > 0, "Carol paid 101 coins");
    }

    #[test]
    fn seller_walking_away_compensates_broker_and_buyer() {
        // Bob deposits premiums but never escrows his ticket.
        let strategies = BTreeMap::from([(SELLER, Strategy::stop_after(2))]);
        let report = broker_deal_config(&BrokerConfig::default())
            .run(&profile(&strategies), &mut World::new(1));
        assert!(!report.completed);
        assert!(report.parties[&BROKER].hedged);
        assert!(report.parties[&BUYER].hedged);
        assert!(report.parties[&BROKER].safety && report.parties[&BUYER].safety);
        assert!(report.payoffs.conserved());
    }

    #[test]
    fn broker_walking_away_compensates_seller_and_buyer() {
        // Alice stops before her trading-phase transfers.
        let strategies = BTreeMap::from([(BROKER, Strategy::stop_after(2))]);
        let report = broker_deal_config(&BrokerConfig::default())
            .run(&profile(&strategies), &mut World::new(1));
        assert!(!report.completed);
        assert!(report.parties[&SELLER].hedged, "{report:?}");
        assert!(report.parties[&BUYER].hedged, "{report:?}");
        assert!(report.payoffs.conserved());
    }

    #[test]
    fn every_unilateral_deviation_keeps_compliant_parties_hedged() {
        let config = BrokerConfig::default();
        for party in [BROKER, SELLER, BUYER] {
            for stop_after in 0..5usize {
                let strategies = BTreeMap::from([(party, Strategy::stop_after(stop_after))]);
                let report =
                    broker_deal_config(&config).run(&profile(&strategies), &mut World::new(1));
                assert!(
                    report.all_compliant_hedged(),
                    "{party} stopping after {stop_after} broke the hedge: {report:?}"
                );
            }
        }
    }
}
