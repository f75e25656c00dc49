//! The Bedrock2 memory model: a byte-addressed heap made of disjoint
//! allocated regions.
//!
//! Bedrock2's semantics gives meaning only to accesses of mapped addresses;
//! everything else is a stuck execution. We model the mapped fragment as a
//! set of disjoint regions and *trap* (return an error) on any access that
//! is out of bounds, unaligned with an allocation, or spans two regions —
//! precisely the class of low-level bugs the paper's approach rules out by
//! construction.

use std::collections::BTreeMap;
use std::fmt;

use crate::ast::AccessSize;

/// An invalid memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessError {
    /// The faulting address.
    pub addr: u64,
    /// The width of the attempted access.
    pub size: u64,
    /// Whether the access was a store.
    pub write: bool,
}

impl fmt::Display for MemAccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}-byte {} at address {:#x}",
            self.size,
            if self.write { "store" } else { "load" },
            self.addr
        )
    }
}

impl std::error::Error for MemAccessError {}

/// A byte-addressed memory of disjoint regions.
///
/// Regions are allocated with [`Memory::alloc`] (bump allocation with guard
/// gaps, so adjacent regions are never contiguous and pointer arithmetic
/// cannot silently walk from one object into another) or at caller-chosen
/// addresses with [`Memory::alloc_at`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Memory {
    regions: BTreeMap<u64, Vec<u8>>,
    next_base: u64,
}

/// Base address of the first bump-allocated region. Nonzero so that null is
/// never mapped.
const ALLOC_BASE: u64 = 0x1000;
/// Guard gap between bump-allocated regions.
const GUARD: u64 = 64;

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory { regions: BTreeMap::new(), next_base: ALLOC_BASE }
    }

    /// Allocates a fresh region containing `data`, returning its base
    /// address.
    pub fn alloc(&mut self, data: Vec<u8>) -> u64 {
        let base = self.next_base;
        let len = data.len() as u64;
        self.next_base = base + len + GUARD + (GUARD - (base + len) % GUARD);
        self.regions.insert(base, data);
        base
    }

    /// Allocates a region at a caller-chosen base address.
    ///
    /// Returns `false` (and allocates nothing) when the region would overlap
    /// an existing region or wrap around the address space.
    pub fn alloc_at(&mut self, base: u64, data: Vec<u8>) -> bool {
        let len = data.len() as u64;
        if base.checked_add(len).is_none() {
            return false;
        }
        let overlaps_prev = self
            .regions
            .range(..=base)
            .next_back()
            .is_some_and(|(b, d)| b + d.len() as u64 > base);
        let overlaps_next = self
            .regions
            .range(base..)
            .next()
            .is_some_and(|(b, _)| *b < base + len);
        if overlaps_prev || (len > 0 && overlaps_next) {
            return false;
        }
        self.regions.insert(base, data);
        if base + len + GUARD > self.next_base {
            self.next_base = base + len + GUARD;
        }
        true
    }

    /// Frees the region with the given base address, returning its contents.
    ///
    /// Returns `None` if `base` is not the base of a region (freeing the
    /// middle of an object is invalid).
    pub fn dealloc(&mut self, base: u64) -> Option<Vec<u8>> {
        self.regions.remove(&base)
    }

    /// A read-only view of the region based at `base`.
    pub fn region(&self, base: u64) -> Option<&[u8]> {
        self.regions.get(&base).map(Vec::as_slice)
    }

    /// A mutable view of the region based at `base`.
    pub fn region_mut(&mut self, base: u64) -> Option<&mut Vec<u8>> {
        self.regions.get_mut(&base)
    }

    /// Number of allocated regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Iterates every allocated region as `(base, bytes)`, in address
    /// order. Comparing two memories region-by-region through this view is
    /// how the RISC-V differential checks heap agreement: whole-`Memory`
    /// equality also compares the bump-allocator cursor, which stays
    /// advanced after `dealloc`, so two heaps with identical contents but
    /// different allocation histories (interpreter vs. machine runner,
    /// which allocates and frees a frame) would spuriously differ.
    pub fn regions(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.regions.iter().map(|(b, d)| (*b, d.as_slice()))
    }

    /// Total allocated bytes.
    pub fn allocated_bytes(&self) -> usize {
        self.regions.values().map(Vec::len).sum()
    }

    /// The offset of `[addr, addr + size)` inside the region of `len`
    /// bytes based at `base <= addr`, when the access fits in it.
    fn offset_in(base: u64, len: usize, addr: u64, size: u64) -> Option<usize> {
        let off = addr - base;
        let end = off.checked_add(size)?;
        (end <= len as u64).then_some(off as usize)
    }

    /// Loads `size` bytes at `addr`, zero-extended into a word
    /// (little-endian).
    ///
    /// # Errors
    ///
    /// Fails when the access is not contained in a single allocated region.
    pub fn load(&self, addr: u64, size: AccessSize) -> Result<u64, MemAccessError> {
        let n = size.bytes();
        let err = MemAccessError { addr, size: n, write: false };
        let (base, data) = self.regions.range(..=addr).next_back().ok_or(err)?;
        let off = Self::offset_in(*base, data.len(), addr, n).ok_or(err)?;
        let mut out = [0u8; 8];
        out[..n as usize].copy_from_slice(&data[off..off + n as usize]);
        Ok(u64::from_le_bytes(out))
    }

    /// Stores the low `size` bytes of `value` at `addr` (little-endian).
    ///
    /// # Errors
    ///
    /// Fails when the access is not contained in a single allocated region.
    pub fn store(&mut self, addr: u64, size: AccessSize, value: u64) -> Result<(), MemAccessError> {
        let n = size.bytes();
        let err = MemAccessError { addr, size: n, write: true };
        let (base, data) = self.regions.range_mut(..=addr).next_back().ok_or(err)?;
        let off = Self::offset_in(*base, data.len(), addr, n).ok_or(err)?;
        data[off..off + n as usize].copy_from_slice(&value.to_le_bytes()[..n as usize]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_load_store_roundtrip() {
        let mut m = Memory::new();
        let p = m.alloc(vec![0; 16]);
        m.store(p, AccessSize::Eight, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.load(p, AccessSize::Eight).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.load(p, AccessSize::One).unwrap(), 0x88); // little-endian
        assert_eq!(m.load(p + 7, AccessSize::One).unwrap(), 0x11);
    }

    #[test]
    fn subword_store_zero_extends_on_load() {
        let mut m = Memory::new();
        let p = m.alloc(vec![0xff; 8]);
        m.store(p, AccessSize::Two, 0xabcd).unwrap();
        assert_eq!(m.load(p, AccessSize::Two).unwrap(), 0xabcd);
        assert_eq!(m.load(p + 2, AccessSize::One).unwrap(), 0xff);
    }

    #[test]
    fn oob_and_unmapped_accesses_trap() {
        let mut m = Memory::new();
        let p = m.alloc(vec![0; 4]);
        assert!(m.load(p + 4, AccessSize::One).is_err());
        assert!(m.load(p + 1, AccessSize::Four).is_err()); // spans the end
        assert!(m.load(0, AccessSize::One).is_err()); // null
        assert!(m.store(p + 4, AccessSize::One, 0).is_err());
        assert_eq!(
            m.load(p + 100, AccessSize::One),
            Err(MemAccessError { addr: p + 100, size: 1, write: false })
        );
    }

    #[test]
    fn regions_are_not_contiguous() {
        let mut m = Memory::new();
        let a = m.alloc(vec![0; 8]);
        let b = m.alloc(vec![0; 8]);
        assert!(b > a + 8); // guard gap
        assert!(m.load(a + 8, AccessSize::One).is_err()); // gap is unmapped
    }

    #[test]
    fn alloc_at_rejects_overlap() {
        let mut m = Memory::new();
        assert!(m.alloc_at(0x2000, vec![0; 16]));
        assert!(!m.alloc_at(0x2008, vec![0; 16]));
        assert!(!m.alloc_at(0x1ff8, vec![0; 16]));
        assert!(m.alloc_at(0x3000, vec![0; 16]));
        assert!(!m.alloc_at(u64::MAX - 4, vec![0; 16])); // wraps
    }

    #[test]
    fn dealloc_requires_base() {
        let mut m = Memory::new();
        let p = m.alloc(vec![1, 2, 3]);
        assert_eq!(m.dealloc(p + 1), None);
        assert_eq!(m.dealloc(p), Some(vec![1, 2, 3]));
        assert!(m.load(p, AccessSize::One).is_err());
    }

    #[test]
    fn region_views() {
        let mut m = Memory::new();
        let p = m.alloc(vec![9, 9]);
        assert_eq!(m.region(p), Some(&[9u8, 9][..]));
        m.region_mut(p).unwrap()[0] = 1;
        assert_eq!(m.region(p), Some(&[1u8, 9][..]));
        assert_eq!(m.region_count(), 1);
        assert_eq!(m.allocated_bytes(), 2);
    }
}
