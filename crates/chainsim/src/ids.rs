//! Identifier newtypes for chains, parties, contracts and assets.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a blockchain within a [`crate::World`].
///
/// Chains are created through [`crate::World::add_chain`], which assigns
/// identifiers sequentially.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ChainId(pub u32);

impl fmt::Display for ChainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chain#{}", self.0)
    }
}

/// Identifies a party (a person, organisation or external program).
///
/// Parties are *active* and *autonomous*: they own assets, publish and call
/// contracts, and may deviate from agreed protocols.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct PartyId(pub u32);

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifies a contract on a particular chain.
///
/// Contract identifiers are unique *per chain*; a globally unique address is
/// the pair ([`ChainId`], [`ContractId`]) captured by [`ContractAddr`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ContractId(pub u64);

impl fmt::Display for ContractId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "contract#{}", self.0)
    }
}

/// A globally unique contract address: chain plus per-chain contract id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ContractAddr {
    /// The chain the contract resides on.
    pub chain: ChainId,
    /// The contract's identifier on that chain.
    pub contract: ContractId,
}

impl ContractAddr {
    /// Creates a contract address from its parts.
    pub const fn new(chain: ChainId, contract: ContractId) -> Self {
        ContractAddr { chain, contract }
    }
}

impl fmt::Display for ContractAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.chain, self.contract)
    }
}

/// Identifies a fungible asset class (a token or native currency).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct AssetId(pub u32);

impl fmt::Display for AssetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asset#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ChainId(3).to_string(), "chain#3");
        assert_eq!(PartyId(0).to_string(), "P0");
        assert_eq!(ContractId(7).to_string(), "contract#7");
        assert_eq!(AssetId(2).to_string(), "asset#2");
        assert_eq!(ContractAddr::new(ChainId(1), ContractId(4)).to_string(), "chain#1/contract#4");
    }

    #[test]
    fn ordering_is_lexicographic_for_addresses() {
        let a = ContractAddr::new(ChainId(0), ContractId(9));
        let b = ContractAddr::new(ChainId(1), ContractId(0));
        assert!(a < b);
    }

    #[test]
    fn ids_are_copy_and_hashable() {
        // The point of this test is that ids are hashable; the set is
        // local and its order is never observed.
        // staticcheck: allow(SC302)
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(PartyId(1));
        set.insert(PartyId(1));
        assert_eq!(set.len(), 1);
    }
}
