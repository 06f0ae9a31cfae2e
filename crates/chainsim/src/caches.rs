//! The per-world memoisation store.
//!
//! Model-checking sweeps give each worker thread one pooled [`crate::World`]
//! that runs thousands of scenarios back to back, and every memo of the
//! simulation lives in that world's [`SimCaches`]: contracts reach it
//! through [`crate::CallEnv::caches`], and party scripts, which see only
//! `&World`, through [`crate::World::caches`]. One store per world is one
//! store per worker: no locks, no sharing and no process-global state.
//! Earlier revisions shared memo tables across *all* workers behind
//! `Arc<Mutex<..>>`, which put a contended lock on the hottest verification
//! path and capped thread scaling.
//!
//! Entries survive [`crate::World::reset`] and snapshot restores, and one
//! world runs many protocols and configurations, so every table is keyed by
//! what it memoises: the key determines the value of a pure computation (a
//! signature, a key pair, a verification verdict), whichever run or
//! configuration first computed it. Keeping such entries changes
//! performance only, never outcomes. Anything whose value could differ
//! under the same key must not be stored here.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::fmt;

/// A type-erased store of memo tables, keyed by table type.
///
/// # Examples
///
/// ```
/// use chainsim::SimCaches;
///
/// #[derive(Default)]
/// struct Seen(std::collections::BTreeSet<u64>);
///
/// let mut caches = SimCaches::default();
/// caches.get_or_default::<Seen>().0.insert(7);
/// assert!(caches.get_or_default::<Seen>().0.contains(&7));
/// ```
#[derive(Default)]
pub struct SimCaches {
    slots: BTreeMap<TypeId, Box<dyn Any + Send>>,
}

impl SimCaches {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the memo table of type `T`, creating it on first use.
    pub fn get_or_default<T: Any + Default + Send>(&mut self) -> &mut T {
        self.slots
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(T::default()))
            .downcast_mut::<T>()
            .expect("slot type is keyed by TypeId")
    }

    /// The number of distinct memo tables currently allocated.
    pub fn tables(&self) -> usize {
        self.slots.len()
    }
}

impl fmt::Debug for SimCaches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCaches").field("tables", &self.slots.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct CounterTable(u64);
    #[derive(Default)]
    struct OtherTable(Vec<u32>);

    #[test]
    fn tables_are_keyed_by_type_and_persist() {
        let mut caches = SimCaches::new();
        caches.get_or_default::<CounterTable>().0 += 3;
        caches.get_or_default::<OtherTable>().0.push(9);
        caches.get_or_default::<CounterTable>().0 += 1;
        assert_eq!(caches.get_or_default::<CounterTable>().0, 4);
        assert_eq!(caches.get_or_default::<OtherTable>().0, vec![9]);
        assert_eq!(caches.tables(), 2);
        assert!(format!("{caches:?}").contains("tables"));
    }
}
