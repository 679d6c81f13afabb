//! [`mirage_core::PageStore`] over real memory.

use std::collections::HashMap;

use mirage_core::PageStore;
use mirage_mem::PageData;
use mirage_types::{
    PageNum,
    PageProt,
    SegmentId,
    PAGE_SIZE,
};

use crate::arch::DoubleMapping;

/// One site's page frames: the double mappings plus an authoritative
/// protection mirror (querying the kernel for current protections is
/// not practical; the protocol engine is the only writer of protections
/// so the mirror cannot drift).
#[derive(Debug, Default)]
pub struct HostStore {
    segs: HashMap<SegmentId, (DoubleMapping, Vec<PageProt>)>,
}

impl HostStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a segment of `pages` DSM pages. `resident` selects the
    /// creator's fully-resident read-write view versus an absent view.
    pub fn add_segment(&mut self, seg: SegmentId, pages: usize, resident: bool) {
        let map = DoubleMapping::new(pages * crate::arch::STRIDE);
        let mut prots = vec![PageProt::None; pages];
        if resident {
            for (p, prot) in prots.iter_mut().enumerate() {
                map.protect(p, PageProt::ReadWrite);
                *prot = PageProt::ReadWrite;
            }
        }
        self.segs.insert(seg, (map, prots));
    }

    /// The mapping for a segment (for registration and app views).
    pub fn mapping(&self, seg: SegmentId) -> Option<&DoubleMapping> {
        self.segs.get(&seg).map(|(m, _)| m)
    }

    /// Every segment held, with its page count (deterministic order).
    pub fn segments(&self) -> Vec<(SegmentId, usize)> {
        let mut v: Vec<_> = self.segs.iter().map(|(s, (_, p))| (*s, p.len())).collect();
        v.sort();
        v
    }

    /// Opens every page of every segment read-write — the teardown
    /// poison step, so app threads retrying a fault after the kernel
    /// died succeed locally instead of spinning forever.
    pub fn open_all(&mut self) {
        for (map, prots) in self.segs.values_mut() {
            for (p, prot) in prots.iter_mut().enumerate() {
                map.protect(p, PageProt::ReadWrite);
                *prot = PageProt::ReadWrite;
            }
        }
    }
}

impl PageStore for HostStore {
    fn take(&mut self, seg: SegmentId, page: PageNum) -> PageData {
        let Some((map, prots)) = self.segs.get_mut(&seg) else {
            return PageData::zeroed();
        };
        // Revoke first: a store an application thread makes after the
        // bytes are read would otherwise be lost.
        map.protect(page.index(), PageProt::None);
        prots[page.index()] = PageProt::None;
        let mut buf = [0u8; PAGE_SIZE];
        map.read_page(page.index(), &mut buf);
        PageData::from_bytes(&buf)
    }

    fn copy(&self, seg: SegmentId, page: PageNum) -> PageData {
        let Some((map, _)) = self.segs.get(&seg) else {
            return PageData::zeroed();
        };
        let mut buf = [0u8; PAGE_SIZE];
        map.read_page(page.index(), &mut buf);
        PageData::from_bytes(&buf)
    }

    fn install(&mut self, seg: SegmentId, page: PageNum, data: PageData, prot: PageProt) {
        let Some((map, prots)) = self.segs.get_mut(&seg) else {
            return;
        };
        // Write the bytes through the kernel view first, then open the
        // user view — a reader woken after `install` must see the data.
        map.write_page(page.index(), data.as_bytes());
        map.protect(page.index(), prot);
        prots[page.index()] = prot;
    }

    fn set_prot(&mut self, seg: SegmentId, page: PageNum, prot: PageProt) {
        let Some((map, prots)) = self.segs.get_mut(&seg) else {
            return;
        };
        map.protect(page.index(), prot);
        prots[page.index()] = prot;
    }

    fn prot(&self, seg: SegmentId, page: PageNum) -> PageProt {
        self.segs.get(&seg).map(|(_, prots)| prots[page.index()]).unwrap_or(PageProt::None)
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
    fn install_take_round_trip_through_real_memory() {
        let mut st = HostStore::new();
        st.add_segment(sid(), 2, false);
        let mut d = PageData::zeroed();
        d.store_u32(8, 0xFEED);
        st.install(sid(), PageNum(1), d, PageProt::Read);
        assert_eq!(st.prot(sid(), PageNum(1)), PageProt::Read);
        let back = st.take(sid(), PageNum(1));
        assert_eq!(back.load_u32(8), 0xFEED);
        assert_eq!(st.prot(sid(), PageNum(1)), PageProt::None);
    }

    #[test]
    fn resident_creator_view_is_writable() {
        let mut st = HostStore::new();
        st.add_segment(sid(), 1, true);
        assert_eq!(st.prot(sid(), PageNum(0)), PageProt::ReadWrite);
        let d = st.copy(sid(), PageNum(0));
        assert_eq!(d.load_u32(0), 0, "fresh segment is zeroed");
    }
}
