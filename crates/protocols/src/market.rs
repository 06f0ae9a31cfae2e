//! Shared-account-pool deal parameterization for market-scale workloads.
//!
//! Every [`Protocol`](crate::script::Protocol) in this crate sets up a
//! private world per run; the market engine (`marketsim::market`) is the
//! opposite — many thousands of overlapping deals contend on the *same*
//! sharded ledgers with 100k+ accounts. This module provides the pieces
//! that let deal instances be parameterized by a shared [`AccountPool`]
//! instead of the fixed `ALICE`/`BOB` ids, and the one builder of the §5.2
//! hedged legs, anchored at an arbitrary start height.
//!
//! The legs take their deadlines from [`crate::two_party`]'s own
//! [`HedgedSchedule`] (premium 1Δ/2Δ, escrow 4Δ/3Δ, redeem 5Δ/6Δ). The
//! two-party swap builds its contracts with the same [`HedgedSwapSpec`],
//! anchored at its finality margin, so a market deal's contracts behave
//! precisely like the conformance-tested ones, just shifted in time and
//! renamed in party space.

use chainsim::{Amount, AssetId, PartyId, Time};
use contracts::HedgedEscrowParams;
use cryptosim::Hashlock;
use serde::{Deserialize, Serialize};

use crate::two_party::HedgedSchedule;

/// A contiguous slice of the shared party-id space from which deal instances
/// draw their participants.
///
/// Party ids are dense (they index ledger rows), so a pool is just a base id
/// plus a length; drawing is O(participants) with rejection-free distinct
/// sampling for the tiny per-deal party counts (2–6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountPool {
    base: u32,
    len: u32,
}

impl AccountPool {
    /// A pool of `len` parties starting at `PartyId(base)`.
    ///
    /// # Panics
    ///
    /// Panics if the pool would overflow the `u32` party-id space.
    pub fn new(base: u32, len: u32) -> Self {
        assert!(base.checked_add(len).is_some(), "account pool overflows party-id space");
        AccountPool { base, len }
    }

    /// The number of parties in the pool.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first party id in the pool.
    pub fn base(&self) -> PartyId {
        PartyId(self.base)
    }

    /// The `idx`-th party of the pool.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn party(&self, idx: u32) -> PartyId {
        assert!(idx < self.len, "party index {idx} out of pool of {}", self.len);
        PartyId(self.base + idx)
    }

    /// Whether `party` belongs to this pool.
    pub fn contains(&self, party: PartyId) -> bool {
        party.0 >= self.base && party.0 - self.base < self.len
    }

    /// Iterates over every party in the pool, ascending.
    pub fn iter(&self) -> impl Iterator<Item = PartyId> + '_ {
        (0..self.len).map(|i| PartyId(self.base + i))
    }

    /// Draws `count` *distinct* parties using the caller's random stream
    /// (`next` yields raw `u64`s, e.g. from a SplitMix64).
    ///
    /// Re-draws on collision, which terminates fast because deals draw a
    /// handful of parties from pools of tens of thousands.
    ///
    /// # Panics
    ///
    /// Panics if `count > len` (a distinct draw would never terminate).
    pub fn draw_distinct(&self, count: usize, mut next: impl FnMut() -> u64) -> Vec<PartyId> {
        assert!(count as u64 <= u64::from(self.len), "cannot draw {count} distinct parties");
        let mut drawn: Vec<PartyId> = Vec::with_capacity(count);
        while drawn.len() < count {
            let candidate = PartyId(self.base + (next() % u64::from(self.len)) as u32);
            if !drawn.contains(&candidate) {
                drawn.push(candidate);
            }
        }
        drawn
    }
}

/// A hedged two-party swap instance drawn from shared account pools: the
/// leader plays the paper's Alice (knows the secret, escrows on the leader
/// chain), the follower plays Bob.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HedgedSwapSpec {
    /// The secret-holding party (the paper's Alice).
    pub leader: PartyId,
    /// The counterparty (the paper's Bob).
    pub follower: PartyId,
    /// The token the leader sells, living on the leader chain.
    pub leader_token: AssetId,
    /// The token the follower sells, living on the follower chain.
    pub follower_token: AssetId,
    /// The leader chain's native currency (denominates the follower's
    /// premium deposit).
    pub leader_native: AssetId,
    /// The follower chain's native currency (denominates the leader's
    /// premium deposit).
    pub follower_native: AssetId,
    /// The leader's principal.
    pub leader_amount: Amount,
    /// The follower's principal.
    pub follower_amount: Amount,
    /// The leader's premium `p_a`.
    pub premium_leader: Amount,
    /// The follower's premium `p_b`.
    pub premium_follower: Amount,
    /// The hashlock guarding both legs.
    pub hashlock: Hashlock,
}

impl HedgedSwapSpec {
    /// Builds the leader-chain escrow parameters (leader escrows, follower
    /// deposits `p_b` and redeems): the apricot leg of `schedule`, shifted
    /// to start at `anchor`.
    pub fn leader_leg(&self, anchor: Time, schedule: &HedgedSchedule) -> HedgedEscrowParams {
        HedgedEscrowParams {
            escrower: self.leader,
            redeemer: self.follower,
            principal_asset: self.leader_token,
            principal_amount: self.leader_amount,
            premium_asset: self.leader_native,
            premium_amount: self.premium_follower,
            hashlock: self.hashlock,
            premium_deadline: shifted(anchor, schedule.premium_apricot),
            escrow_deadline: shifted(anchor, schedule.escrow_apricot),
            redeem_deadline: shifted(anchor, schedule.redeem_apricot),
        }
    }

    /// Builds the follower-chain escrow parameters (follower escrows, leader
    /// deposits `p_a + p_b` and redeems with the secret): the banana leg of
    /// `schedule`, shifted to start at `anchor`.
    pub fn follower_leg(&self, anchor: Time, schedule: &HedgedSchedule) -> HedgedEscrowParams {
        HedgedEscrowParams {
            escrower: self.follower,
            redeemer: self.leader,
            principal_asset: self.follower_token,
            principal_amount: self.follower_amount,
            premium_asset: self.follower_native,
            premium_amount: self.premium_leader + self.premium_follower,
            hashlock: self.hashlock,
            premium_deadline: shifted(anchor, schedule.premium_banana),
            escrow_deadline: shifted(anchor, schedule.escrow_banana),
            redeem_deadline: shifted(anchor, schedule.redeem_banana),
        }
    }
}

/// `deadline` of a schedule anchored at `Time::ZERO`, re-anchored at `anchor`.
fn shifted(anchor: Time, deadline: Time) -> Time {
    anchor.plus(deadline.height())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_indexing_and_membership() {
        let pool = AccountPool::new(100, 50);
        assert_eq!(pool.len(), 50);
        assert!(!pool.is_empty());
        assert_eq!(pool.base(), PartyId(100));
        assert_eq!(pool.party(0), PartyId(100));
        assert_eq!(pool.party(49), PartyId(149));
        assert!(pool.contains(PartyId(100)) && pool.contains(PartyId(149)));
        assert!(!pool.contains(PartyId(99)) && !pool.contains(PartyId(150)));
        assert_eq!(pool.iter().count(), 50);
        assert_eq!(pool.iter().next(), Some(PartyId(100)));
    }

    #[test]
    #[should_panic(expected = "out of pool")]
    fn pool_rejects_out_of_range_index() {
        AccountPool::new(0, 3).party(3);
    }

    #[test]
    fn draw_distinct_is_distinct_and_stream_driven() {
        let pool = AccountPool::new(10, 4);
        // A stream that collides on purpose: 0, 0, 1, 1, 2 → parties 10, 11, 12.
        let stream = [0u64, 0, 1, 1, 2];
        let mut i = 0;
        let drawn = pool.draw_distinct(3, || {
            let v = stream[i];
            i += 1;
            v
        });
        assert_eq!(drawn, vec![PartyId(10), PartyId(11), PartyId(12)]);
    }

    #[test]
    fn legs_mirror_the_two_party_schedule() {
        use crate::two_party::{swap_static_setup, SwapProtocol, TwoPartyConfig, ALICE, BOB};
        use chainsim::{ChainId, ContractAddr, ContractId};
        use contracts::HedgedEscrow;

        // The contracts the two-party hedged setup publishes: Alice's is the
        // only one on the apricot chain, Bob's the only one on banana.
        let config = TwoPartyConfig::default();
        let (world, _) = swap_static_setup(&config, SwapProtocol::Hedged);
        let published = |chain: u32| {
            let addr = ContractAddr::new(ChainId(chain), ContractId(0));
            assert_eq!(world.chain(addr.chain).contract_count(), 1);
            world
                .chain(addr.chain)
                .contract_as::<HedgedEscrow>(addr.contract)
                .expect("hedged escrow")
                .params()
                .clone()
        };
        let (apricot, banana) = (published(0), published(1));
        let spec = HedgedSwapSpec {
            leader: ALICE,
            follower: BOB,
            leader_token: apricot.principal_asset,
            follower_token: banana.principal_asset,
            leader_native: apricot.premium_asset,
            follower_native: banana.premium_asset,
            leader_amount: config.alice_tokens,
            follower_amount: config.bob_tokens,
            premium_leader: config.premium_a,
            premium_follower: config.premium_b,
            hashlock: apricot.hashlock,
        };
        let schedule = config.hedged_schedule();
        // Anchored at the origin the legs are the two-party contracts.
        assert_eq!(spec.leader_leg(Time::ZERO, &schedule), apricot);
        assert_eq!(spec.follower_leg(Time::ZERO, &schedule), banana);
        // Anchored later, every deadline shifts by the anchor and nothing
        // else changes.
        let anchor = Time(20);
        let shift = |mut params: HedgedEscrowParams| {
            for deadline in [
                &mut params.premium_deadline,
                &mut params.escrow_deadline,
                &mut params.redeem_deadline,
            ] {
                *deadline = deadline.plus(anchor.height());
            }
            params
        };
        assert_eq!(spec.leader_leg(anchor, &schedule), shift(apricot));
        assert_eq!(spec.follower_leg(anchor, &schedule), shift(banana));
    }
}
