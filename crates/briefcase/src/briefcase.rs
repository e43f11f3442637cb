use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::{codec, BriefcaseError, Element, Folder};

/// The shared interior of a [`Briefcase`]: the folder map plus a lazily
/// populated cache of the TAXB wire encoding.
///
/// The cache rides inside the `Arc` so that every pointer-bump clone of a
/// briefcase shares one encoding: a multi-destination `activate` that ships
/// the same state to N peers serializes once, not N times.
#[derive(Default)]
struct Shared {
    folders: BTreeMap<String, Folder>,
    /// Cached [`codec::encode_briefcase`] output. Invalidated (taken) by
    /// every copy-on-write mutation; never populated for a briefcase that
    /// is still being built up mutably.
    wire: OnceLock<bytes::Bytes>,
}

impl Clone for Shared {
    fn clone(&self) -> Self {
        // Cloning `Shared` only happens when `Arc::make_mut` unshares the
        // interior just before a mutation, so the copy starts with a cold
        // cache rather than an about-to-be-stale one.
        Shared {
            folders: self.folders.clone(),
            wire: OnceLock::new(),
        }
    }
}

impl PartialEq for Shared {
    fn eq(&self, other: &Self) -> bool {
        self.folders == other.folders
    }
}

impl Eq for Shared {}

/// A briefcase: an associative array of [`Folder`]s, the transportable state
/// of a mobile agent and the unit of exchange between communicating agents
/// (§3.1).
///
/// Folder names are unique within a briefcase and iteration is in sorted
/// name order, which makes the wire encoding deterministic.
///
/// The folder map lives behind an [`Arc`] with copy-on-write semantics:
/// `clone()` is a pointer bump, and the map is duplicated only when one of
/// the clones is first mutated (`Arc::make_mut`). Because folders and
/// elements are themselves refcounted, even that duplication copies names
/// and pointers, never payload bytes. This makes the `bcSend`/`meet`/
/// `spawn` fan-out paths O(folders), not O(bytes).
///
/// ```
/// use tacoma_briefcase::Briefcase;
///
/// let mut bc = Briefcase::new();
/// bc.append("RESULTS", "page-ok: /index.html");
/// bc.set_single("STATUS", "done");
/// assert_eq!(bc.single_str("STATUS").unwrap(), "done");
/// ```
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Briefcase {
    shared: Arc<Shared>,
}

impl Briefcase {
    /// Creates an empty briefcase.
    pub fn new() -> Self {
        Briefcase::default()
    }

    /// Read access to the folder map.
    fn folders(&self) -> &BTreeMap<String, Folder> {
        &self.shared.folders
    }

    /// Copy-on-write access to the folder map: unshares the interior if any
    /// clone still aliases it, and invalidates the cached wire encoding.
    ///
    /// Every `&mut self` method funnels through here, so the cache can never
    /// survive a mutation. Invalidation is conservative — handing out a
    /// `&mut Folder` counts as a mutation even if the caller never writes.
    fn folders_mut(&mut self) -> &mut BTreeMap<String, Folder> {
        let shared = Arc::make_mut(&mut self.shared);
        shared.wire.take();
        &mut shared.folders
    }

    /// Number of folders.
    pub fn folder_count(&self) -> usize {
        self.folders().len()
    }

    /// Whether the briefcase holds no folders at all.
    pub fn is_empty(&self) -> bool {
        self.folders().is_empty()
    }

    /// The folder with the given name, if present (the `bcIndex()` of the
    /// original C API).
    pub fn folder(&self, name: &str) -> Option<&Folder> {
        self.folders().get(name)
    }

    /// Mutable access to the folder with the given name, if present.
    pub fn folder_mut(&mut self, name: &str) -> Option<&mut Folder> {
        self.folders_mut().get_mut(name)
    }

    /// The folder with the given name, created empty if absent.
    pub fn ensure_folder(&mut self, name: &str) -> &mut Folder {
        self.folders_mut()
            .entry(name.to_owned())
            .or_insert_with(|| Folder::new(name))
    }

    /// Inserts a folder wholesale, returning any previous folder with the
    /// same name.
    pub fn insert_folder(&mut self, folder: Folder) -> Option<Folder> {
        self.folders_mut().insert(folder.name().to_owned(), folder)
    }

    /// Removes and returns the named folder — the agent idiom for dropping
    /// state before a `go()` to minimize bytes on the wire.
    pub fn remove_folder(&mut self, name: &str) -> Option<Folder> {
        self.folders_mut().remove(name)
    }

    /// Whether a folder with this name exists.
    pub fn contains_folder(&self, name: &str) -> bool {
        self.folders().contains_key(name)
    }

    /// Appends an element to the named folder, creating the folder if
    /// absent.
    pub fn append(&mut self, folder: &str, element: impl Into<Element>) -> &mut Self {
        self.ensure_folder(folder).append(element);
        self
    }

    /// Replaces the named folder's contents with a single element.
    pub fn set_single(&mut self, folder: &str, element: impl Into<Element>) -> &mut Self {
        let f = self.ensure_folder(folder);
        f.clear();
        f.append(element);
        self
    }

    /// The element at `index` in the named folder.
    ///
    /// # Errors
    ///
    /// [`BriefcaseError::NoSuchFolder`] or [`BriefcaseError::NoSuchElement`].
    pub fn element(&self, folder: &str, index: usize) -> Result<&Element, BriefcaseError> {
        let f = self
            .folder(folder)
            .ok_or_else(|| BriefcaseError::NoSuchFolder {
                name: folder.to_owned(),
            })?;
        f.get(index).ok_or_else(|| BriefcaseError::NoSuchElement {
            folder: folder.to_owned(),
            index,
            len: f.len(),
        })
    }

    /// The sole element of the named folder, as text.
    ///
    /// # Errors
    ///
    /// Fails if the folder or element is missing or the element is not
    /// UTF-8. If the folder has several elements the first is returned.
    pub fn single_str(&self, folder: &str) -> Result<&str, BriefcaseError> {
        self.element(folder, 0)?.as_str()
    }

    /// The sole element of the named folder, as an integer.
    ///
    /// # Errors
    ///
    /// As [`Briefcase::single_str`], plus [`BriefcaseError::NotInteger`].
    pub fn single_i64(&self, folder: &str) -> Result<i64, BriefcaseError> {
        self.element(folder, 0)?.as_i64()
    }

    /// Iterates over folders in name order.
    pub fn iter(&self) -> Folders<'_> {
        Folders(self.folders().values())
    }

    /// Iterates mutably over folders in name order.
    pub fn iter_mut(&mut self) -> FoldersMut<'_> {
        FoldersMut(self.folders_mut().values_mut())
    }

    /// Iterates over folder names in sorted order.
    pub fn names(&self) -> FolderNames<'_> {
        FolderNames(self.folders().keys())
    }

    /// Total payload bytes across all folders (excluding names and framing).
    pub fn payload_len(&self) -> usize {
        self.folders().values().map(Folder::payload_len).sum()
    }

    /// Exact size in bytes of [`Briefcase::encode`]'s output, without
    /// encoding. Used by the network simulator for transfer-cost accounting.
    pub fn encoded_len(&self) -> usize {
        match self.shared.wire.get() {
            Some(wire) => wire.len(),
            None => codec::encoded_len(self),
        }
    }

    /// Encodes the briefcase into the TAX wire format.
    pub fn encode(&self) -> Vec<u8> {
        match self.shared.wire.get() {
            Some(wire) => wire.to_vec(),
            None => codec::encode_briefcase(self),
        }
    }

    /// Encodes into a caller-provided buffer, appending — the
    /// allocation-reuse path for senders that encode in a loop.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self.shared.wire.get() {
            Some(wire) => out.extend_from_slice(wire),
            None => codec::encode_briefcase_into(self, out),
        }
    }

    /// The TAX wire encoding as a shared, refcounted buffer, computed at
    /// most once per briefcase lineage.
    ///
    /// The first call encodes and caches; later calls — including calls on
    /// pointer-bump clones of this briefcase — return a zero-copy handle to
    /// the same buffer. Any mutation (any `&mut self` method) invalidates
    /// the cache, so the returned bytes always equal a fresh
    /// [`Briefcase::encode`]. This is what makes firewall `ship` retries and
    /// multi-destination `activate` fan-out serialize once instead of per
    /// attempt/peer.
    pub fn wire_bytes(&self) -> bytes::Bytes {
        self.shared
            .wire
            .get_or_init(|| bytes::Bytes::from(codec::encode_briefcase(self)))
            .clone()
    }

    /// Whether the wire-encoding cache is currently populated. Exposed for
    /// tests and benches that assert on encode-once behavior.
    pub fn has_cached_wire(&self) -> bool {
        self.shared.wire.get().is_some()
    }

    /// Whether two briefcases share the same interior (a clone that has not
    /// yet diverged). Used by tests and benches to observe CoW.
    pub fn shares_storage_with(&self, other: &Briefcase) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Decodes a briefcase from the TAX wire format without copying:
    /// elements are slices of `wire`'s allocation. See
    /// [`codec::decode_briefcase_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`BriefcaseError`] variant describing a malformed or over-bound
    /// input; the decoder never panics on arbitrary bytes.
    pub fn decode_bytes(wire: &bytes::Bytes) -> Result<Self, BriefcaseError> {
        codec::decode_briefcase_bytes(wire)
    }

    /// Merges another briefcase into this one: folders with the same name
    /// have the other's elements appended after this one's.
    pub fn merge(&mut self, other: Briefcase) {
        let folders = self.folders_mut();
        for folder in other {
            match folders.get_mut(folder.name()) {
                Some(existing) => existing.extend(folder),
                None => {
                    folders.insert(folder.name().to_owned(), folder);
                }
            }
        }
    }

    /// Builds a briefcase directly from a folder map, with a cold cache.
    pub(crate) fn from_folder_map(folders: BTreeMap<String, Folder>) -> Self {
        Briefcase {
            shared: Arc::new(Shared {
                folders,
                wire: OnceLock::new(),
            }),
        }
    }
}

impl fmt::Debug for Briefcase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for folder in self.iter() {
            map.entry(&folder.name(), &folder.len());
        }
        map.finish()
    }
}

impl IntoIterator for Briefcase {
    type Item = Folder;
    type IntoIter = IntoFolders;
    fn into_iter(self) -> Self::IntoIter {
        let folders = match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.folders,
            // Another clone is still alive: take a CoW snapshot of the map
            // (name strings + folder pointer bumps, no payload copies).
            Err(shared) => shared.folders.clone(),
        };
        IntoFolders(folders.into_values())
    }
}

impl FromIterator<Folder> for Briefcase {
    fn from_iter<T: IntoIterator<Item = Folder>>(iter: T) -> Self {
        let folders = iter
            .into_iter()
            .map(|folder| (folder.name().to_owned(), folder))
            .collect();
        Briefcase::from_folder_map(folders)
    }
}

impl Extend<Folder> for Briefcase {
    fn extend<T: IntoIterator<Item = Folder>>(&mut self, iter: T) {
        let folders = self.folders_mut();
        for folder in iter {
            folders.insert(folder.name().to_owned(), folder);
        }
    }
}

/// Iterator over a briefcase's folders in name order.
#[derive(Debug)]
pub struct Folders<'a>(btree_map::Values<'a, String, Folder>);

impl<'a> Iterator for Folders<'a> {
    type Item = &'a Folder;
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// Mutable iterator over a briefcase's folders in name order.
#[derive(Debug)]
pub struct FoldersMut<'a>(btree_map::ValuesMut<'a, String, Folder>);

impl<'a> Iterator for FoldersMut<'a> {
    type Item = &'a mut Folder;
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// Iterator over a briefcase's folder names in sorted order.
#[derive(Debug)]
pub struct FolderNames<'a>(btree_map::Keys<'a, String, Folder>);

impl<'a> Iterator for FolderNames<'a> {
    type Item = &'a str;
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(String::as_str)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// Owning iterator over a briefcase's folders in name order.
#[derive(Debug)]
pub struct IntoFolders(btree_map::IntoValues<String, Folder>);

impl Iterator for IntoFolders {
    type Item = Folder;
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::folders;

    #[test]
    fn ensure_folder_is_idempotent() {
        let mut bc = Briefcase::new();
        bc.ensure_folder("X").append("1");
        bc.ensure_folder("X").append("2");
        assert_eq!(bc.folder("X").unwrap().len(), 2);
        assert_eq!(bc.folder_count(), 1);
    }

    #[test]
    fn element_lookup_errors_are_specific() {
        let mut bc = Briefcase::new();
        bc.append("A", "x");
        assert!(matches!(
            bc.element("B", 0),
            Err(BriefcaseError::NoSuchFolder { .. })
        ));
        assert!(matches!(
            bc.element("A", 3),
            Err(BriefcaseError::NoSuchElement {
                len: 1,
                index: 3,
                ..
            })
        ));
    }

    #[test]
    fn set_single_replaces() {
        let mut bc = Briefcase::new();
        bc.append("S", "a").append("S", "b");
        bc.set_single("S", "only");
        assert_eq!(bc.folder("S").unwrap().len(), 1);
        assert_eq!(bc.single_str("S").unwrap(), "only");
    }

    #[test]
    fn merge_appends_and_unions() {
        let mut a = Briefcase::new();
        a.append("SHARED", "a1").append("ONLY-A", "x");
        let mut b = Briefcase::new();
        b.append("SHARED", "b1").append("ONLY-B", "y");
        a.merge(b);
        assert_eq!(a.folder("SHARED").unwrap().len(), 2);
        assert_eq!(
            a.folder("SHARED")
                .unwrap()
                .get(1)
                .unwrap()
                .as_str()
                .unwrap(),
            "b1"
        );
        assert!(a.contains_folder("ONLY-A") && a.contains_folder("ONLY-B"));
    }

    #[test]
    fn iteration_is_name_sorted() {
        let mut bc = Briefcase::new();
        bc.append("zeta", 1i64)
            .append("alpha", 2i64)
            .append("mid", 3i64);
        let names: Vec<_> = bc.names().collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn from_iterator_collects() {
        let bc: Briefcase = ["A", "B"].into_iter().map(Folder::new).collect();
        assert_eq!(bc.folder_count(), 2);
    }

    #[test]
    fn figure4_itinerary_idiom() {
        // The Figure-4 agent: remove first HOSTS element each hop; empty
        // folder (no element) means terminate.
        let mut bc = Briefcase::new();
        bc.append(folders::HOSTS, "tacoma://h1/vm")
            .append(folders::HOSTS, "tacoma://h2/vm");
        let mut hops = Vec::new();
        while let Some(e) = bc.folder_mut(folders::HOSTS).and_then(Folder::remove_front) {
            hops.push(e.as_str().unwrap().to_owned());
        }
        assert_eq!(hops, ["tacoma://h1/vm", "tacoma://h2/vm"]);
    }

    #[test]
    fn clone_is_a_pointer_bump_until_mutation() {
        let mut bc = Briefcase::new();
        bc.append("A", "x").append("B", "y");
        let copy = bc.clone();
        assert!(bc.shares_storage_with(&copy));
        bc.append("A", "z");
        assert!(!bc.shares_storage_with(&copy));
        assert_eq!(copy.folder("A").unwrap().len(), 1);
        assert_eq!(bc.folder("A").unwrap().len(), 2);
    }

    #[test]
    fn wire_cache_populates_and_survives_clone() {
        let mut bc = Briefcase::new();
        bc.append("A", "x");
        assert!(!bc.has_cached_wire());
        let w1 = bc.wire_bytes();
        assert!(bc.has_cached_wire());
        let copy = bc.clone();
        // The clone shares the cache: same allocation, no re-encode.
        let w2 = copy.wire_bytes();
        assert_eq!(w1.as_ptr(), w2.as_ptr());
        assert_eq!(w1.as_ref(), bc.encode().as_slice());
    }

    #[test]
    fn mutation_invalidates_wire_cache() {
        let mut bc = Briefcase::new();
        bc.append("A", "x");
        let stale = bc.wire_bytes();
        bc.append("A", "y");
        assert!(!bc.has_cached_wire());
        let fresh = bc.wire_bytes();
        assert_ne!(stale.as_ref(), fresh.as_ref());
        assert_eq!(
            fresh.as_ref(),
            Briefcase::decode_bytes(&fresh).unwrap().encode()
        );
    }

    #[test]
    fn folder_mut_access_alone_invalidates_cache() {
        // Conservative invalidation: handing out `&mut Folder` counts as a
        // mutation even if nothing is written.
        let mut bc = Briefcase::new();
        bc.append("A", "x");
        bc.wire_bytes();
        let _ = bc.folder_mut("A");
        assert!(!bc.has_cached_wire());
    }

    #[test]
    fn encoded_len_matches_cache_when_populated() {
        let mut bc = Briefcase::new();
        bc.append("A", vec![1u8, 2, 3]);
        let plain = bc.encoded_len();
        bc.wire_bytes();
        assert_eq!(bc.encoded_len(), plain);
    }
}
