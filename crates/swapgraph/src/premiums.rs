//! Premium formulas for the hedged multi-party swap and broker protocols.
//!
//! This module implements Equations (1) and (2) of §7 of the paper together
//! with the broker-protocol trading premiums of §8. All quantities are in
//! abstract premium units (`u128`); the protocol layer converts them to
//! native-currency [`chainsim` amounts].
//!
//! Terminology (for an arc `(u, v)`, a transfer from `u` to `v`):
//!
//! * the **escrow premium** `E(u, v)` is deposited by `u` and awarded to `v`
//!   if `u` fails to escrow its asset on the arc in time;
//! * a **redemption premium** `R_i(q, u)` is deposited by `v` (the receiver)
//!   for each hashkey `k_i` it must eventually present, and awarded to `u`
//!   if `v` fails to present `k_i` in time. The path `q` runs from `v` to
//!   the leader `L_i` that generated `k_i`.
//!
//! [`chainsim` amounts]: https://docs.rs/chainsim

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::digraph::{Digraph, GraphError, Vertex};

/// A single redemption-premium obligation: on arc `(sender, receiver)`, for
/// the hashkey generated by `leader`, along `path` (receiver → leader), the
/// receiver deposits `amount`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RedemptionEntry {
    /// The arc `(u, v)` the premium is deposited on.
    pub arc: (Vertex, Vertex),
    /// The leader whose hashkey the premium protects.
    pub leader: Vertex,
    /// The path from the arc's receiver to the leader.
    pub path: Vec<Vertex>,
    /// The premium amount in base-premium units.
    pub amount: u128,
}

/// Computes `R_i(q, v)` of Equation (1): the redemption premium associated
/// with path `q` (running from the arc's receiver to the leader) as seen by
/// vertex `v`, with base premium `p`.
///
/// * If `v ‖ q` is a cycle (i.e. `v` is the leader at the end of `q`), the
///   premium is `p`.
/// * If `v` already appears in `q` (so `v ‖ q` is not a simple path), no
///   premium is ever deposited along that extension and the value is `0`.
/// * Otherwise the premium is `p` plus the premiums `v` must in turn deposit
///   on each of its incoming arcs for the extended path `v ‖ q`.
pub fn redemption_premium(g: &Digraph, p: u128, q: &[Vertex], v: Vertex) -> u128 {
    RedemptionPremiumEvaluator::new(g).premium(g, p, q, v)
}

/// Precomputed compact adjacency for evaluating Equation (1) repeatedly on
/// one digraph.
///
/// Contracts evaluate the redemption premium on every deposit of a sweep;
/// the evaluator hoists the `O(V + E)` index/adjacency setup out of the
/// per-call path so the recursion itself runs allocation-free over a path
/// bitmask. Build it once per digraph (once per deal setup, or once per
/// premium table) and call [`premium`](Self::premium) per evaluation.
#[derive(Clone, Debug)]
pub struct RedemptionPremiumEvaluator {
    /// All vertices, ascending (binary-searchable).
    verts: Vec<Vertex>,
    /// `in_nb[i]` lists the compact indices with an arc into vertex `i`;
    /// populated only when the bitmask fast path applies (≤ 64 vertices).
    in_nb: Vec<Vec<u8>>,
}

impl RedemptionPremiumEvaluator {
    /// Builds the compact tables for `g`.
    pub fn new(g: &Digraph) -> Self {
        let verts: Vec<Vertex> = g.vertices().collect();
        let mut in_nb: Vec<Vec<u8>> = Vec::new();
        if verts.len() <= 64 {
            in_nb.resize(verts.len(), Vec::new());
            for (a, b) in g.arcs() {
                if let (Ok(ai), Ok(bi)) = (verts.binary_search(&a), verts.binary_search(&b)) {
                    in_nb[bi].push(ai as u8);
                }
            }
        }
        RedemptionPremiumEvaluator { verts, in_nb }
    }

    /// Computes `R_i(q, v)` of Equation (1); identical to
    /// [`redemption_premium_ref`] on `g` (`g` must be the digraph the
    /// evaluator was built from — it is only consulted on the fallback
    /// path for oversized or foreign vertex sets).
    pub fn premium(&self, g: &Digraph, p: u128, q: &[Vertex], v: Vertex) -> u128 {
        let Some(&leader) = q.last() else { return 0 };
        if self.verts.len() <= 64 {
            let index_of = |x: Vertex| self.verts.binary_search(&x).ok();
            let mut mask = 0u64;
            for &x in q {
                match index_of(x) {
                    Some(i) => mask |= 1 << i,
                    // A path vertex outside the digraph: fall back to the
                    // reference recursion's membership handling.
                    None => return redemption_premium_ref(g, p, q, v),
                }
            }
            let (Some(vi), Some(li)) = (index_of(v), index_of(leader)) else {
                return redemption_premium_ref(g, p, q, v);
            };
            fn rec(in_nb: &[Vec<u8>], p: u128, mask: u64, leader: usize, v: usize) -> u128 {
                if v == leader {
                    return p;
                }
                if mask & (1 << v) != 0 {
                    return 0;
                }
                let extended = mask | (1 << v);
                let mut total = p;
                for &u in &in_nb[v] {
                    total += rec(in_nb, p, extended, leader, u as usize);
                }
                total
            }
            return rec(&self.in_nb, p, mask, li, vi);
        }
        redemption_premium_ref(g, p, q, v)
    }
}

/// Reference implementation of [`redemption_premium`], kept as the direct
/// transcription of Equation (1); the bitmask fast path must agree with it
/// (pinned by a property test).
pub fn redemption_premium_ref(g: &Digraph, p: u128, q: &[Vertex], v: Vertex) -> u128 {
    let Some(&leader) = q.last() else { return 0 };
    if v == leader {
        // v ‖ q is a cycle: the path has come back around to the leader.
        return p;
    }
    if q.contains(&v) {
        // v ‖ q is neither a path nor a cycle; no premium flows this way.
        return 0;
    }
    let mut extended = Vec::with_capacity(q.len() + 1);
    extended.push(v);
    extended.extend_from_slice(q);
    let mut total = p;
    for u in g.in_neighbors(v) {
        total += redemption_premium_ref(g, p, &extended, u);
    }
    total
}

/// The redemption premium the leader deposits on a single incoming arc
/// `(u, leader)`: `R_i((L_i), u)`.
pub fn leader_arc_premium(g: &Digraph, leader: Vertex, u: Vertex, p: u128) -> u128 {
    redemption_premium(g, p, &[leader], u)
}

/// The leader's total redemption premium `R(L_i)`: the sum of the premiums
/// it deposits on its incoming arcs.
pub fn leader_redemption_premium(g: &Digraph, leader: Vertex, p: u128) -> u128 {
    leader_premium(&RedemptionPremiumEvaluator::new(g), g, leader, p)
}

/// [`leader_redemption_premium`] through an evaluator built for `g`.
fn leader_premium(
    evaluator: &RedemptionPremiumEvaluator,
    g: &Digraph,
    leader: Vertex,
    p: u128,
) -> u128 {
    g.in_neighbors(leader).into_iter().map(|u| evaluator.premium(g, p, &[leader], u)).sum()
}

/// Enumerates every redemption-premium obligation that can arise for the
/// hashkey generated by `leader`: one entry per arc `(u, v)` and per simple
/// path from `v` to the leader.
///
/// This reproduces Figure 3b of the paper: the set of paths carried by
/// hashkey `k_A` on each arc, together with the premium each path implies.
pub fn redemption_premium_table(g: &Digraph, leader: Vertex, p: u128) -> Vec<RedemptionEntry> {
    let evaluator = RedemptionPremiumEvaluator::new(g);
    let mut entries = Vec::new();
    for (u, v) in g.arcs() {
        for path in g.simple_paths(v, leader) {
            let amount = evaluator.premium(g, p, &path, u);
            entries.push(RedemptionEntry { arc: (u, v), leader, path, amount });
        }
    }
    entries
}

/// Computes the escrow premium `E(u, v)` of Equation (2).
///
/// Each arc entering a leader carries that leader's redemption premium
/// `R(L_i)`; each arc entering a follower covers the escrow premiums on the
/// follower's outgoing arcs. The recursion terminates because the leader
/// set is a feedback vertex set.
///
/// # Errors
///
/// Returns a [`GraphError`] if `leaders` is not a valid leader set for `g`.
pub fn escrow_premium(
    g: &Digraph,
    leaders: &BTreeSet<Vertex>,
    u: Vertex,
    v: Vertex,
    p: u128,
) -> Result<u128, GraphError> {
    g.validate_leaders(leaders)?;
    Ok(escrow_premium_unchecked(&RedemptionPremiumEvaluator::new(g), g, leaders, u, v, p))
}

/// [`escrow_premium`] through an evaluator built for `g`.
fn escrow_premium_unchecked(
    evaluator: &RedemptionPremiumEvaluator,
    g: &Digraph,
    leaders: &BTreeSet<Vertex>,
    _u: Vertex,
    v: Vertex,
    p: u128,
) -> u128 {
    if leaders.contains(&v) {
        return leader_premium(evaluator, g, v, p);
    }
    g.out_arcs(v)
        .into_iter()
        .map(|(vv, w)| escrow_premium_unchecked(evaluator, g, leaders, vv, w, p))
        .sum()
}

/// Computes the escrow premium for every arc of the digraph.
///
/// # Errors
///
/// Returns a [`GraphError`] if `leaders` is not a valid leader set for `g`.
pub fn escrow_premium_table(
    g: &Digraph,
    leaders: &BTreeSet<Vertex>,
    p: u128,
) -> Result<BTreeMap<(Vertex, Vertex), u128>, GraphError> {
    g.validate_leaders(leaders)?;
    let evaluator = RedemptionPremiumEvaluator::new(g);
    Ok(g.arcs()
        .map(|(u, v)| ((u, v), escrow_premium_unchecked(&evaluator, g, leaders, u, v, p)))
        .collect())
}

/// Aggregate premium statistics for one digraph and leader set.
///
/// Protocol code uses this to size native-currency endowments for generated
/// graphs (where per-arc premiums can grow exponentially in the party
/// count), and benchmarks use it to report premium scaling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PremiumSummary {
    /// The largest escrow premium on any arc.
    pub max_escrow: u128,
    /// The sum of escrow premiums over all arcs.
    pub total_escrow: u128,
    /// The largest single redemption-premium obligation on any arc/path.
    pub max_redemption: u128,
    /// The sum of redemption-premium obligations over all arcs and paths.
    pub total_redemption: u128,
}

/// Computes the [`PremiumSummary`] of `g` under `leaders` with base premium
/// `p`, covering both Equation (2) escrow premiums and every Equation (1)
/// redemption obligation of every leader.
///
/// # Errors
///
/// Returns a [`GraphError`] if `leaders` is not a valid leader set for `g`.
pub fn premium_summary(
    g: &Digraph,
    leaders: &BTreeSet<Vertex>,
    p: u128,
) -> Result<PremiumSummary, GraphError> {
    let escrow = escrow_premium_table(g, leaders, p)?;
    let mut summary = PremiumSummary::default();
    for &amount in escrow.values() {
        summary.max_escrow = summary.max_escrow.max(amount);
        summary.total_escrow += amount;
    }
    for &leader in leaders {
        for entry in redemption_premium_table(g, leader, p) {
            summary.max_redemption = summary.max_redemption.max(entry.amount);
            summary.total_redemption += entry.amount;
        }
    }
    Ok(summary)
}

/// Premium structure of the hedged broker protocol (§8).
///
/// With every party a leader, the structure collapses to:
///
/// * a trading premium `T(v, w) = R_w(w)` for each trading-phase transfer
///   `v → w`;
/// * an escrow premium `E(u, v) = T(v)` (the sum of `v`'s outgoing trading
///   premiums) for each escrow-phase transfer `u → v`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrokerPremiums {
    /// Redemption premiums per arc and path.
    pub redemption: Vec<RedemptionEntry>,
    /// Trading premiums per trading-phase arc.
    pub trading: BTreeMap<(Vertex, Vertex), u128>,
    /// Escrow premiums per escrow-phase arc.
    pub escrow: BTreeMap<(Vertex, Vertex), u128>,
}

/// Computes the broker-protocol premium structure.
///
/// `escrow_arcs` are the escrow-phase transfers (owners escrowing their own
/// assets), `trading_arcs` the trading-phase transfers performed by the
/// broker. Every party is a leader, so `R_w(w)` is the leader redemption
/// premium of `w` in the full digraph.
pub fn broker_premiums(
    g: &Digraph,
    escrow_arcs: &[(Vertex, Vertex)],
    trading_arcs: &[(Vertex, Vertex)],
    p: u128,
) -> BrokerPremiums {
    let mut redemption = Vec::new();
    for &leader in g.vertices().collect::<Vec<_>>().iter() {
        redemption.extend(redemption_premium_table(g, leader, p));
    }
    let evaluator = RedemptionPremiumEvaluator::new(g);
    let trading: BTreeMap<(Vertex, Vertex), u128> =
        trading_arcs.iter().map(|&(v, w)| ((v, w), leader_premium(&evaluator, g, w, p))).collect();
    let escrow: BTreeMap<(Vertex, Vertex), u128> = escrow_arcs
        .iter()
        .map(|&(u, v)| {
            let t_v: u128 =
                trading.iter().filter(|((from, _), _)| *from == v).map(|(_, amount)| *amount).sum();
            ((u, v), t_v)
        })
        .collect();
    BrokerPremiums { redemption, trading, escrow }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmask_fast_path_agrees_with_the_reference_recursion() {
        for g in [
            Digraph::figure3(),
            Digraph::cycle(4),
            Digraph::complete(4),
            Digraph::complete(5),
            Digraph::random_strongly_connected(5, 4, 7),
        ] {
            for from in g.vertices() {
                for to in g.vertices() {
                    for q in g.simple_paths(from, to) {
                        for v in g.vertices() {
                            assert_eq!(
                                redemption_premium(&g, 3, &q, v),
                                redemption_premium_ref(&g, 3, &q, v),
                                "q={q:?}, v={v}"
                            );
                        }
                    }
                }
            }
        }
    }

    const P: u128 = 1;

    #[test]
    fn figure3_redemption_premiums() {
        let g = Digraph::figure3();
        // Leader A = 0. The leader deposits 2p on (B,A) and 3p on (C,A).
        assert_eq!(leader_arc_premium(&g, 0, 1, P), 2);
        assert_eq!(leader_arc_premium(&g, 0, 2, P), 3);
        assert_eq!(leader_redemption_premium(&g, 0, P), 5);
    }

    #[test]
    fn figure3_redemption_premium_paths() {
        let g = Digraph::figure3();
        let table = redemption_premium_table(&g, 0, P);
        // Arc (A,B): receiver B has two paths to A: (B,A) and (B,C,A).
        let ab: Vec<&RedemptionEntry> = table.iter().filter(|e| e.arc == (0, 1)).collect();
        assert_eq!(ab.len(), 2);
        assert!(ab.iter().any(|e| e.path == vec![1, 0]));
        assert!(ab.iter().any(|e| e.path == vec![1, 2, 0]));
        // Arc (B,C): receiver C has exactly one path (C,A).
        let bc: Vec<&RedemptionEntry> = table.iter().filter(|e| e.arc == (1, 2)).collect();
        assert_eq!(bc.len(), 1);
        assert_eq!(bc[0].path, vec![2, 0]);
        // Premium B deposits on (A,B): the sender A is the leader, so the
        // extension closes a cycle and the premium is exactly p.
        let ba_path = ab.iter().find(|e| e.path == vec![1, 0]).unwrap();
        assert_eq!(ba_path.amount, 1);
        // Premium C deposits on (B,C) for path (C,A): R((C,A), B) =
        // p + R((B,C,A), A) = p + p = 2p (it covers C's own p plus the
        // passthrough premium C must post on its incoming arc).
        assert_eq!(bc[0].amount, 2);
    }

    #[test]
    fn redemption_premium_base_cases() {
        let g = Digraph::figure3();
        // Empty path contributes nothing.
        assert_eq!(redemption_premium(&g, P, &[], 0), 0);
        // v equal to the leader at the end of the path: exactly p.
        assert_eq!(redemption_premium(&g, P, &[1, 0], 0), 1);
        // v already on the path (not the leader): no premium.
        assert_eq!(redemption_premium(&g, P, &[1, 2, 0], 2), 0);
    }

    #[test]
    fn figure3_escrow_premiums() {
        let g = Digraph::figure3();
        let leaders = BTreeSet::from([0]);
        let table = escrow_premium_table(&g, &leaders, P).unwrap();
        // Arcs entering the leader carry R(L) = 5p.
        assert_eq!(table[&(1, 0)], 5);
        assert_eq!(table[&(2, 0)], 5);
        // Arc (B,C): C's outgoing arcs = {(C,A)}, so E = 5p.
        assert_eq!(table[&(1, 2)], 5);
        // Arc (A,B): B's outgoing arcs = {(B,A), (B,C)}, so E = 10p.
        assert_eq!(table[&(0, 1)], 10);
    }

    #[test]
    fn escrow_premium_single_arc_matches_table() {
        let g = Digraph::figure3();
        let leaders = BTreeSet::from([0]);
        assert_eq!(escrow_premium(&g, &leaders, 0, 1, P).unwrap(), 10);
        assert_eq!(
            escrow_premium(&g, &leaders, 0, 1, 7).unwrap(),
            70,
            "premiums scale linearly in p"
        );
    }

    #[test]
    fn escrow_premium_rejects_bad_leader_set() {
        let g = Digraph::figure3();
        assert_eq!(
            escrow_premium(&g, &BTreeSet::from([2]), 0, 1, P),
            Err(GraphError::NotFeedbackVertexSet)
        );
        assert_eq!(
            escrow_premium_table(&g, &BTreeSet::new(), P),
            Err(GraphError::NotFeedbackVertexSet)
        );
    }

    #[test]
    fn cycle_premiums_are_linear_in_n() {
        // On a directed cycle with a single leader there is a unique path
        // between any two parties and the leader's premium is n·p: linear in
        // the number of parties, as claimed in §7.
        let mut previous = 0;
        for n in 3..8 {
            let g = Digraph::cycle(n);
            let premium = leader_redemption_premium(&g, 0, P);
            assert_eq!(premium, u128::from(n), "cycle premium is n·p");
            assert!(premium > previous);
            previous = premium;
        }
    }

    #[test]
    fn complete_digraph_premiums_grow_superlinearly() {
        let p3 = leader_redemption_premium(&Digraph::complete(3), 0, P);
        let p4 = leader_redemption_premium(&Digraph::complete(4), 0, P);
        let p5 = leader_redemption_premium(&Digraph::complete(5), 0, P);
        assert!(p4 > 2 * p3, "complete-digraph premiums grow faster than linearly");
        assert!(p5 > 2 * p4);
    }

    #[test]
    fn two_party_swap_matches_section_5_premiums() {
        // The 2-cycle is the two-party swap of §5 with p_a = p_b = p: the
        // leader (Alice) deposits 2p = p_a + p_b on her counterparty's arc,
        // while Bob deposits p on his; both escrow premiums equal 2p.
        let g = Digraph::cycle(2);
        let leaders = BTreeSet::from([0]);
        assert_eq!(leader_redemption_premium(&g, 0, P), 2);
        assert_eq!(leader_arc_premium(&g, 0, 1, P), 2);
        // Bob's redemption premium on arc (A,B) is p.
        assert_eq!(redemption_premium(&g, P, &[1, 0], 0), 1);
        let escrow = escrow_premium_table(&g, &leaders, P).unwrap();
        assert_eq!(escrow[&(1, 0)], 2);
        assert_eq!(escrow[&(0, 1)], 2);
    }

    #[test]
    fn premium_summary_aggregates_figure3() {
        let g = Digraph::figure3();
        let leaders = BTreeSet::from([0]);
        let summary = premium_summary(&g, &leaders, P).unwrap();
        // Escrow premiums: 10 + 5 + 5 + 5 (see figure3_escrow_premiums).
        assert_eq!(summary.total_escrow, 25);
        assert_eq!(summary.max_escrow, 10);
        // Redemption entries for leader 0: arcs (0,1) paths {1,0}->1 and
        // {1,2,0}->1, (1,0) path {0}->2, (1,2) path {2,0}->2, (2,0) path {0}->3.
        assert_eq!(summary.total_redemption, 1 + 1 + 2 + 2 + 3);
        assert_eq!(summary.max_redemption, 3);
        assert_eq!(
            premium_summary(&g, &BTreeSet::from([2]), P),
            Err(GraphError::NotFeedbackVertexSet)
        );
    }

    #[test]
    fn broker_premium_structure() {
        // Broker digraph of Figure 4a: B→A (ticket), C→A (101 coins),
        // A→C (ticket), A→B (100 coins). Vertices: A=0, B=1, C=2.
        let mut g = Digraph::new();
        g.add_arc(1, 0);
        g.add_arc(2, 0);
        g.add_arc(0, 2);
        g.add_arc(0, 1);
        let escrow_arcs = [(1, 0), (2, 0)];
        let trading_arcs = [(0, 1), (0, 2)];
        let premiums = broker_premiums(&g, &escrow_arcs, &trading_arcs, P);

        // Trading premium T(A,B) = R_B(B) and T(A,C) = R_C(C).
        let rb = leader_redemption_premium(&g, 1, P);
        let rc = leader_redemption_premium(&g, 2, P);
        assert_eq!(premiums.trading[&(0, 1)], rb);
        assert_eq!(premiums.trading[&(0, 2)], rc);
        // Escrow premium E(B,A) = E(C,A) = T(A) = T(A,B) + T(A,C).
        assert_eq!(premiums.escrow[&(1, 0)], rb + rc);
        assert_eq!(premiums.escrow[&(2, 0)], rb + rc);
        // Redemption entries cover every leader.
        assert!(premiums.redemption.iter().any(|e| e.leader == 0));
        assert!(premiums.redemption.iter().any(|e| e.leader == 1));
        assert!(premiums.redemption.iter().any(|e| e.leader == 2));
    }
}
