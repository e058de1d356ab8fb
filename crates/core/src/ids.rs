//! Identifier newtypes for servers and groups, and the dense map the
//! serving state keys by them.
//!
//! Server and group ids are dense small integers: server ids are issued
//! in order and never reused, and a new group takes the lowest id no live
//! group holds. So a table keyed by one is a vector indexed by it: an
//! [`IdMap`]. The cluster's servers and the routing
//! snapshot's group tables are `IdMap`s, so a walk's verification of a
//! candidate, the L4 sweep over the servers whose bit survived, and the
//! drain of each write record reach their server by index — one bounds
//! check, no tree search.

use core::fmt;
use core::ops::Index;

/// Identifies one metadata server (MDS).
///
/// Dense small integers: clusters in the paper range from 10 to 200
/// servers, and `u16` leaves ample headroom for "ultra large-scale"
/// configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MdsId(pub u16);

impl fmt::Display for MdsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mds{}", self.0)
    }
}

impl From<u16> for MdsId {
    fn from(value: u16) -> Self {
        MdsId(value)
    }
}

/// Identifies one logical MDS group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u16);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group{}", self.0)
    }
}

impl From<u16> for GroupId {
    fn from(value: u16) -> Self {
        GroupId(value)
    }
}

/// A cluster's membership-configuration version.
///
/// Every reconfiguration path — join, graceful leave, fail-stop, group
/// split, group merge, replica rebalancing — advances the epoch **at
/// least once** before returning (a compound operation like a join that
/// splits a group advances it at each internal step, so the epoch is an
/// invalidation fence, not a count of reconfiguration calls). Derived
/// routing state (candidate slot masks, membership snapshots) is tagged
/// with the epoch it was built under and validated lazily: a consumer
/// holding state from an older epoch rebuilds instead of trusting it,
/// the same discipline dynamic-subtree systems use for cached placement
/// state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MembershipEpoch(pub u64);

impl MembershipEpoch {
    /// Advances to the next epoch (called by every reconfiguration path).
    pub fn bump(&mut self) {
        self.0 += 1;
    }
}

impl fmt::Display for MembershipEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch{}", self.0)
    }
}

/// One group's configuration version — the per-group refinement of
/// [`MembershipEpoch`].
///
/// The cluster-wide epoch answers "did *anything* change?"; a group
/// epoch answers "did anything change **that this group's derived
/// routing state depends on**?". A reconfiguration bumps the epochs of
/// exactly the groups whose replica placement, membership, or held
/// counts it altered: a single-group rebalance bumps one group, a split
/// bumps the two halves, a merge bumps the surviving group, while a
/// join/leave/fail — which places or drops a replica in *every* group —
/// bumps them all. A successor snapshot inherits the L2/L3 plans of
/// every group whose epoch did not move, so a rebalance of one group
/// leaves every other group's plans warm (the all-or-nothing flush this
/// replaces cold-started every mask on any reconfiguration).
///
/// Group ids are reused: a dissolved group's id goes to the next group
/// a split or a founding join creates, and its epoch restarts at the
/// default. That group inherits no plan of the dissolved one, because a
/// successor carries a plan only while the group's storage is the same
/// `Arc`, and a new group is new storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupEpoch(pub u64);

impl GroupEpoch {
    /// Advances to the next epoch (called for every group a
    /// reconfiguration touches).
    pub fn bump(&mut self) {
        self.0 += 1;
    }
}

impl fmt::Display for GroupEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gepoch{}", self.0)
    }
}

/// A key of an [`IdMap`]: an id whose integer is its slot.
pub(crate) trait DenseId: Copy {
    /// The slot this id occupies.
    fn index(self) -> usize;
}

impl DenseId for MdsId {
    fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl DenseId for GroupId {
    fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// A map from dense ids to values, stored as one vector indexed by the
/// id: the subset of `BTreeMap`'s interface the serving state uses, with
/// a lookup that is a bounds check and a tag test.
///
/// Iteration yields entries in ascending id order, exactly as a
/// `BTreeMap` would, and every iterator knows its length. The vector
/// holds one slot per id up to the highest ever inserted — a removed id
/// leaves a hole, nothing compacts. Server ids are never reused, so the
/// cluster's servers take one slot per server ever issued (≈ 360 B
/// each); group ids are, so a group table takes one slot per group that
/// ever existed at once, not one per group ever created.
#[derive(Clone)]
pub(crate) struct IdMap<K, V> {
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<K: DenseId + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: DenseId, V> IdMap<K, V> {
    /// An empty map.
    pub(crate) fn new() -> Self {
        IdMap::default()
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `key`, if any.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.slots
            .get(key.index())?
            .as_ref()
            .map(|(_, value)| value)
    }

    /// The value at `key`, mutably, if any.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.slots
            .get_mut(key.index())?
            .as_mut()
            .map(|(_, value)| value)
    }

    /// Whether `key` has a value.
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Sets `key`'s value, returning the one it replaced. Grows the slots
    /// up to `key`'s.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let at = key.index();
        if self.slots.len() <= at {
            self.slots.resize_with(at + 1, || None);
        }
        let old = self.slots[at].replace((key, value));
        if old.is_none() {
            self.len += 1;
        }
        old.map(|(_, value)| value)
    }

    /// Removes `key`'s value, returning it. Its slot stays, empty.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let (_, value) = self.slots.get_mut(key.index())?.take()?;
        self.len -= 1;
        Some(value)
    }

    /// `key`'s value, inserting the default first if it has none (what
    /// `entry(key).or_default()` is to a `BTreeMap`).
    pub(crate) fn get_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        if !self.contains_key(&key) {
            self.insert(key, V::default());
        }
        self.get_mut(&key).expect("inserted above")
    }

    /// Removes every entry.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// The entries in ascending id order.
    pub(crate) fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            slots: self.slots.iter(),
            remaining: self.len,
        }
    }

    /// The ids in ascending order.
    pub(crate) fn keys(&self) -> impl ExactSizeIterator<Item = &K> {
        self.iter().map(|(key, _)| key)
    }

    /// The values in ascending id order.
    pub(crate) fn values(&self) -> impl ExactSizeIterator<Item = &V> {
        self.iter().map(|(_, value)| value)
    }

    /// The values in ascending id order, mutably.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().flatten().map(|(_, value)| value)
    }
}

impl<K: DenseId, V> Index<&K> for IdMap<K, V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics if `key` has no value.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry for id")
    }
}

impl<'a, K: DenseId, V> IntoIterator for &'a IdMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

/// The entries of an [`IdMap`] in ascending id order.
#[derive(Debug)]
pub(crate) struct Iter<'a, K, V> {
    slots: core::slice::Iter<'a, Option<(K, V)>>,
    /// Entries not yet yielded: the iterator stops at the last one, not
    /// at the end of the slots.
    remaining: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let (key, value) = self.slots.find_map(Option::as_ref)?;
        self.remaining -= 1;
        Some((key, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(MdsId(7).to_string(), "mds7");
        assert_eq!(GroupId(2).to_string(), "group2");
        assert_eq!(MembershipEpoch(4).to_string(), "epoch4");
    }

    #[test]
    fn epoch_bumps_monotonically() {
        let mut epoch = MembershipEpoch::default();
        let before = epoch;
        epoch.bump();
        assert!(epoch > before);
        assert_eq!(epoch, MembershipEpoch(1));
    }

    #[test]
    fn group_epoch_bumps_monotonically() {
        let mut epoch = GroupEpoch::default();
        epoch.bump();
        epoch.bump();
        assert_eq!(epoch, GroupEpoch(2));
        assert_eq!(epoch.to_string(), "gepoch2");
    }

    #[test]
    fn conversions() {
        assert_eq!(MdsId::from(3u16), MdsId(3));
        assert_eq!(GroupId::from(9u16), GroupId(9));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(MdsId(2) < MdsId(10));
        assert!(GroupId(0) < GroupId(1));
    }

    /// Everything an `IdMap` reports agrees with the `BTreeMap` it
    /// replaced: entries, ids, values, lengths and every point lookup.
    fn agrees(
        map: &IdMap<MdsId, u32>,
        reference: &std::collections::BTreeMap<MdsId, u32>,
    ) -> Result<(), String> {
        let entries: Vec<(MdsId, u32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        let want: Vec<(MdsId, u32)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        if entries != want {
            return Err(format!("entries {entries:?} != {want:?}"));
        }
        let keys: Vec<MdsId> = map.keys().copied().collect();
        let values: Vec<u32> = map.values().copied().collect();
        if keys != reference.keys().copied().collect::<Vec<_>>()
            || values != reference.values().copied().collect::<Vec<_>>()
        {
            return Err("keys or values differ".into());
        }
        let lens = [
            map.len(),
            map.iter().len(),
            map.keys().len(),
            map.values().len(),
        ];
        if lens != [reference.len(); 4] || map.is_empty() != reference.is_empty() {
            return Err(format!("lengths {lens:?} != {}", reference.len()));
        }
        for id in (0..320).map(MdsId) {
            if map.get(&id) != reference.get(&id)
                || map.contains_key(&id) != reference.contains_key(&id)
            {
                return Err(format!("get({id}) differs"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random insert / remove / get_or_default streams over ids with
        /// holes: after every op the map reads exactly like the reference.
        #[test]
        fn id_map_matches_a_btreemap(
            ops in proptest::collection::vec((0u8..4, 0u16..300, proptest::prelude::any::<u32>()), 1..300),
        ) {
            let mut map = IdMap::new();
            let mut reference = std::collections::BTreeMap::new();
            for (at, &(op, id, value)) in ops.iter().enumerate() {
                let id = MdsId(id);
                match op {
                    0 | 1 => proptest::prop_assert_eq!(
                        map.insert(id, value),
                        reference.insert(id, value)
                    ),
                    2 => proptest::prop_assert_eq!(map.remove(&id), reference.remove(&id)),
                    _ => {
                        *map.get_or_default(id) += 1;
                        *reference.entry(id).or_default() += 1;
                    }
                }
                if let Err(why) = agrees(&map, &reference) {
                    return Err(proptest::prelude::TestCaseError::fail(format!("op {at}: {why}")));
                }
            }
            for value in map.values_mut() {
                *value = value.wrapping_mul(3);
            }
            for value in reference.values_mut() {
                *value = value.wrapping_mul(3);
            }
            proptest::prop_assert!(agrees(&map, &reference).is_ok());
            map.clear();
            reference.clear();
            proptest::prop_assert!(agrees(&map, &reference).is_ok());
        }
    }

    #[test]
    fn id_map_indexes_and_keeps_holes() {
        let mut groups: IdMap<GroupId, &str> = IdMap::new();
        groups.insert(GroupId(4), "four");
        groups.insert(GroupId(1), "one");
        assert_eq!(groups[&GroupId(4)], "four");
        assert_eq!(groups.remove(&GroupId(4)), Some("four"));
        assert_eq!(groups.remove(&GroupId(4)), None);
        assert_eq!(groups.get(&GroupId(900)), None);
        assert_eq!(
            groups.slots.len(),
            5,
            "a removal leaves its slot, a lookup past the end grows nothing"
        );
        assert_eq!(format!("{groups:?}"), "{GroupId(1): \"one\"}");
        let both: Vec<_> = (&groups).into_iter().collect();
        assert_eq!(both, [(&GroupId(1), &"one")]);
    }

    #[test]
    #[should_panic(expected = "no entry for id")]
    fn id_map_index_of_a_hole_panics() {
        let mut map: IdMap<MdsId, u8> = IdMap::new();
        map.insert(MdsId(2), 0);
        let _ = map[&MdsId(1)];
    }
}
