//! The page-frame storage abstraction.
//!
//! The protocol engine must move page *data* (grants carry bytes), but
//! where the bytes live differs by harness: the simulator keeps them in
//! [`mirage_mem::LocalSegment`]s; the host runtime keeps them in real
//! `mmap`ed memory guarded by `mprotect`. [`PageStore`] is the seam.

use mirage_mem::{
    LocalSegment,
    PageData,
};
use mirage_types::{
    PageNum,
    PageProt,
    SegmentId,
};

/// A site's page-frame storage, as seen by the protocol engine.
///
/// Implementations must apply protections such that subsequent local
/// accesses fault appropriately; the engine trusts `prot` to reflect what
/// the hardware (or simulated hardware) will enforce.
pub trait PageStore {
    /// Removes the local copy of a page, returning its bytes
    /// (invalidation: "unmaps and discards the page", §6.1).
    ///
    /// Returns a zeroed page if the page was not resident — which the
    /// engine never asks for; the fallback keeps the trait total.
    ///
    /// A store whose frames running threads write directly must revoke
    /// access *before* reading the bytes, so no store lands after them.
    fn take(&mut self, seg: SegmentId, page: PageNum) -> PageData;

    /// Copies a resident page's bytes without removing it (used to grant
    /// read copies while retaining the local one). The engine revokes
    /// write access before it copies a page it held writable.
    fn copy(&self, seg: SegmentId, page: PageNum) -> PageData;

    /// Installs a page received from the network with the given
    /// protection.
    fn install(&mut self, seg: SegmentId, page: PageNum, data: PageData, prot: PageProt);

    /// Changes the protection of a resident page (upgrade or downgrade).
    fn set_prot(&mut self, seg: SegmentId, page: PageNum, prot: PageProt);

    /// The current protection of a page at this site.
    fn prot(&self, seg: SegmentId, page: PageNum) -> PageProt;
}

/// A straightforward in-memory [`PageStore`] over [`LocalSegment`]s.
///
/// Used by the simulator and by the protocol unit/property tests.
///
/// Segments live in a plain vector searched linearly: a site maps a
/// handful of segments at most, and the lookup sits on the simulator's
/// per-access hot path, where a linear scan over one or two entries
/// beats hashing a `SegmentId` on every load and store.
#[derive(Debug, Default)]
pub struct InMemStore {
    segments: Vec<LocalSegment>,
}

impl InMemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a segment view. The creating (library) site passes a
    /// fully-resident view; other sites pass an absent view. Replaces
    /// any existing view of the same segment.
    pub fn add_segment(&mut self, seg: LocalSegment) {
        match self.segments.iter_mut().find(|s| s.id() == seg.id()) {
            Some(slot) => *slot = seg,
            None => self.segments.push(seg),
        }
    }

    /// Direct access for harnesses that execute loads/stores.
    pub fn segment(&self, id: SegmentId) -> Option<&LocalSegment> {
        self.segments.iter().find(|s| s.id() == id)
    }

    /// Direct mutable access for harnesses that execute stores.
    pub fn segment_mut(&mut self, id: SegmentId) -> Option<&mut LocalSegment> {
        self.segments.iter_mut().find(|s| s.id() == id)
    }
}

impl PageStore for InMemStore {
    fn take(&mut self, seg: SegmentId, page: PageNum) -> PageData {
        self.segment_mut(seg).and_then(|s| s.invalidate(page)).unwrap_or_default()
    }

    fn copy(&self, seg: SegmentId, page: PageNum) -> PageData {
        self.segment(seg).and_then(|s| s.copy_out(page)).unwrap_or_default()
    }

    fn install(&mut self, seg: SegmentId, page: PageNum, data: PageData, prot: PageProt) {
        if let Some(s) = self.segment_mut(seg) {
            s.install(page, data, prot);
        }
    }

    fn set_prot(&mut self, seg: SegmentId, page: PageNum, prot: PageProt) {
        if let Some(s) = self.segment_mut(seg) {
            if prot == PageProt::None {
                s.invalidate(page);
            } else {
                s.set_prot(page, prot);
            }
        }
    }

    fn prot(&self, seg: SegmentId, page: PageNum) -> PageProt {
        self.segment(seg).map(|s| s.prot(page)).unwrap_or(PageProt::None)
    }
}

#[cfg(test)]
mod tests {
    use mirage_types::SiteId;

    use super::*;

    fn sid() -> SegmentId {
        SegmentId::new(SiteId(0), 1)
    }

    #[test]
    fn install_take_round_trip() {
        let mut st = InMemStore::new();
        st.add_segment(LocalSegment::absent(sid(), 2));
        let mut d = PageData::zeroed();
        d.store_u32(4, 99);
        st.install(sid(), PageNum(1), d, PageProt::Read);
        assert_eq!(st.prot(sid(), PageNum(1)), PageProt::Read);
        let taken = st.take(sid(), PageNum(1));
        assert_eq!(taken.load_u32(4), 99);
        assert_eq!(st.prot(sid(), PageNum(1)), PageProt::None);
    }

    #[test]
    fn copy_retains_residency() {
        let mut st = InMemStore::new();
        st.add_segment(LocalSegment::fully_resident(sid(), 1));
        let _ = st.copy(sid(), PageNum(0));
        assert_eq!(st.prot(sid(), PageNum(0)), PageProt::ReadWrite);
    }

    #[test]
    fn set_prot_none_discards_frame() {
        let mut st = InMemStore::new();
        st.add_segment(LocalSegment::fully_resident(sid(), 1));
        st.set_prot(sid(), PageNum(0), PageProt::None);
        assert_eq!(st.prot(sid(), PageNum(0)), PageProt::None);
        assert!(st.segment(sid()).unwrap().frame(PageNum(0)).is_none());
    }

    #[test]
    fn unknown_segment_is_benign() {
        let mut st = InMemStore::new();
        assert_eq!(st.prot(sid(), PageNum(0)), PageProt::None);
        let _ = st.take(sid(), PageNum(0));
        let _ = st.copy(sid(), PageNum(0));
    }
}
