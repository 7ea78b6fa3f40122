// Package vm implements the execution substrate that stands in for the
// paper's customized QEMU/SKI hypervisor: a deterministic virtual machine
// whose guest memory is fully interposed, whose threads are serialized
// coroutines (only one vCPU executes at any time, §4.4.1), and whose
// scheduler is a pluggable policy consulted after every memory access.
//
// Guest memory is paged with copy-on-write snapshots so that every test runs
// from the same fixed initial kernel state (§4.1), which is what makes PMC
// addresses comparable across tests.
package vm

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageSize is the guest page size in bytes.
const PageSize = 4096

// Addr is a guest physical/virtual address (the simulation is identity
// mapped).
type Addr = uint64

// page is one guest page. owner is the Memory that may write it in place;
// nil once a Snapshot references it, after which it is immutable and every
// writer copies first.
type page struct {
	data  [PageSize]byte
	owner *Memory
}

// Region is a half-open range [Lo, Hi) of valid guest addresses. Accesses
// outside all valid regions fault, which is how null-pointer dereferences
// become observable kernel bugs.
type Region struct {
	Lo, Hi Addr
	Name   string
}

// Memory is the guest address space: sparse pages plus the set of valid
// regions. Pages referenced by a Snapshot are shared and copied on write.
//
// Pages hang off a two-level table indexed by page number — a root of
// leaves, each covering leafPages adjacent pages — so the lookup under
// every guest load and store is two array indexings, and the table of a
// booted kernel is a handful of leaves.
//
// A Memory remembers the snapshot its page table was derived from (base)
// and the pages it has privately materialised since (dirty), so restoring
// base again — what every trial does — rewinds only those pages and keeps
// their buffers on a free list for the next trial's copies.
//
// A thread's access asks three questions — is it valid, which page holds
// it, may a write go in place — and the TLB answers all three with one tag
// compare (tlbPage). An entry caches a page lying wholly inside one valid
// region, so a hit for an in-page access is valid without the region scan,
// and the page's owner says whether a write may go in place. A miss takes
// the region check and the table walk, and pageFor refills the entry.
// Restore and AddRegion flush the TLB, and newPage's caller replaces the
// entry of the page it swapped in; Snapshot needs no flush, as it clears
// the owner of every page it freezes, so a cached write to one misses.
type Memory struct {
	root    pageTable
	regions []Region
	base    *Snapshot // the table minus dirty equals base's; nil before the first Snapshot/Restore
	dirty   []uint64  // numbers of the pages this Memory owns
	free    []*page   // recycled buffers, owner already set
	tlb     [tlbEntries]tlbEntry
}

const (
	pageShift = 12 // log2(PageSize)
	leafShift = 9  // log2(leafPages)
	leafPages = 1 << leafShift

	// AddrLimit bounds guest addresses, so that the root of the page table
	// stays a short slice: one entry per 2 MB, 32k entries at the limit.
	AddrLimit Addr = 1 << 36
)

// tlbEntries is the size of a Memory's TLB, direct-mapped by the low bits
// of the page number: the pages a trial touches fit it with few conflicts,
// and a flush clears 1 KB.
const tlbEntries = 64

// tlbEntry caches page number tag-1's page, which lies wholly inside one
// valid region; tag 0 marks an empty entry.
type tlbEntry struct {
	tag uint64
	p   *page
}

// leaf maps leafPages adjacent page numbers to their pages, nil for a page
// nobody has touched.
type leaf [leafPages]*page

// pageTable is the two-level table of a Memory or a Snapshot. The root is
// indexed by page number >> leafShift and grows to the highest leaf in use;
// n counts the materialised pages.
type pageTable struct {
	leaves []*leaf
	n      int
}

// get returns the page numbered pn, or nil.
func (t *pageTable) get(pn uint64) *page {
	if li := pn >> leafShift; li < uint64(len(t.leaves)) {
		if l := t.leaves[li]; l != nil {
			return l[pn&(leafPages-1)]
		}
	}
	return nil
}

// slot returns the table entry of page pn, growing the root and creating
// the leaf as needed.
func (t *pageTable) slot(pn uint64) **page {
	li := pn >> leafShift
	if li >= uint64(len(t.leaves)) {
		if pn >= uint64(AddrLimit>>pageShift) {
			panic(fmt.Sprintf("vm: address %#x beyond the guest address space (limit %#x)", pn<<pageShift, AddrLimit))
		}
		t.leaves = append(t.leaves, make([]*leaf, li+1-uint64(len(t.leaves)))...)
	}
	l := t.leaves[li]
	if l == nil {
		l = new(leaf)
		t.leaves[li] = l
	}
	return &l[pn&(leafPages-1)]
}

// set points entry pn at p (nil unmaps it), keeping the page count.
func (t *pageTable) set(pn uint64, p *page) {
	e := t.slot(pn)
	switch {
	case *e == nil && p != nil:
		t.n++
	case *e != nil && p == nil:
		t.n--
	}
	*e = p
}

// copyFrom makes t an independent copy of o, leaf by leaf, reusing the
// leaves t already has.
func (t *pageTable) copyFrom(o *pageTable) {
	for len(t.leaves) < len(o.leaves) {
		t.leaves = append(t.leaves, nil)
	}
	for li, l := range t.leaves {
		var src *leaf
		if li < len(o.leaves) {
			src = o.leaves[li]
		}
		switch {
		case src == nil && l != nil:
			*l = leaf{}
		case src != nil && l == nil:
			c := *src
			t.leaves[li] = &c
		case src != nil:
			*l = *src
		}
	}
	t.n = o.n
}

// NewMemory returns an empty address space with no valid regions.
func NewMemory() *Memory {
	return &Memory{}
}

// AddRegion declares [lo, hi) valid. Regions must not overlap, and end at
// or below AddrLimit.
func (m *Memory) AddRegion(name string, lo, hi Addr) {
	if lo >= hi || hi > AddrLimit {
		panic(fmt.Sprintf("vm: bad region %s [%#x,%#x)", name, lo, hi))
	}
	for _, r := range m.regions {
		if lo < r.Hi && r.Lo < hi {
			panic(fmt.Sprintf("vm: region %s [%#x,%#x) overlaps %s", name, lo, hi, r.Name))
		}
	}
	m.regions = append(m.regions, Region{Lo: lo, Hi: hi, Name: name})
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Lo < m.regions[j].Lo })
	m.tlb = [tlbEntries]tlbEntry{}
}

// Valid reports whether the whole range [addr, addr+size) is inside one
// valid region.
func (m *Memory) Valid(addr Addr, size int) bool {
	r := m.region(addr)
	return r != nil && addr+uint64(size) <= r.Hi
}

// region returns the valid region holding addr, or nil.
func (m *Memory) region(addr Addr) *Region {
	for i := range m.regions {
		if r := &m.regions[i]; r.Lo <= addr && addr < r.Hi {
			return r
		}
	}
	return nil
}

// newPage returns a page owned by m, registered as dirty at pn, with
// unspecified contents.
func (m *Memory) newPage(pn uint64) *page {
	var p *page
	if n := len(m.free); n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
	} else {
		p = &page{owner: m}
	}
	m.root.set(pn, p)
	m.dirty = append(m.dirty, pn)
	return p
}

// tlbPage returns the page holding addr when the TLB holds it and the
// access is of 1 to 8 bytes with room for a whole word before the page's
// end, so valid; otherwise nil, and the caller takes the checked path.
func (m *Memory) tlbPage(addr Addr, size int) *page {
	if e := &m.tlb[(addr>>pageShift)%tlbEntries]; e.tag == addr>>pageShift+1 && addr%PageSize <= PageSize-8 && uint(size-1) < 8 {
		return e.p
	}
	return nil
}

// pageFor returns the page holding addr, for reading or for writing in
// place, and caches it in the TLB if it lies wholly inside a valid region
// (r, when a thread's check found addr's, else as Valid says). An untouched
// page is materialised zeroed either way; a page a snapshot shares is
// copied before the first write.
func (m *Memory) pageFor(addr Addr, forWrite bool, r *Region) *page {
	pn := addr >> pageShift
	p := m.root.get(pn)
	switch {
	case p == nil:
		p = m.newPage(pn)
		p.data = [PageSize]byte{}
	case forWrite && p.owner != m:
		shared := p
		p = m.newPage(pn)
		p.data = shared.data
	}
	lo := pn << pageShift
	if e, want := &m.tlb[pn%tlbEntries], (tlbEntry{tag: pn + 1, p: p}); *e != want &&
		(r == nil && m.Valid(lo, PageSize) || r != nil && r.Lo <= lo && lo+PageSize <= r.Hi) {
		*e = want
	}
	return p
}

// read fills dst with the bytes at addr.
func (m *Memory) read(addr Addr, dst []byte) {
	for i := 0; i < len(dst); {
		p := m.pageFor(addr+uint64(i), false, nil)
		i += copy(dst[i:], p.data[(addr+uint64(i))%PageSize:])
	}
}

// WriteBytes stores b at addr.
func (m *Memory) WriteBytes(addr Addr, b []byte) {
	for i := 0; i < len(b); {
		p := m.pageFor(addr+uint64(i), true, nil)
		i += copy(p.data[(addr+uint64(i))%PageSize:], b[i:])
	}
}

// Read returns the little-endian value of the size bytes at addr (size 1..8).
func (m *Memory) Read(addr Addr, size int) uint64 {
	if off := addr % PageSize; off <= PageSize-8 && uint(size) <= 8 {
		return loadWord(m.pageFor(addr, false, nil), off, size)
	}
	var buf [8]byte
	m.read(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:])
}

// loadWord reads the size bytes (1..8) at offset off of p, where the page
// has room for a whole word: one load, masked.
func loadWord(p *page, off uint64, size int) uint64 {
	v := binary.LittleEndian.Uint64(p.data[off:])
	if size < 8 {
		v &= 1<<(8*uint(size)) - 1
	}
	return v
}

// storeWord writes the low size bytes (1..8) of val at offset off of p,
// where the page has room for a whole word: one load and one store.
func storeWord(p *page, off uint64, size int, val uint64) {
	if size < 8 {
		mask := uint64(1)<<(8*uint(size)) - 1
		val = binary.LittleEndian.Uint64(p.data[off:])&^mask | val&mask
	}
	binary.LittleEndian.PutUint64(p.data[off:], val)
}

// Write stores the low size bytes of val at addr, little-endian.
func (m *Memory) Write(addr Addr, size int, val uint64) {
	if off := addr % PageSize; off <= PageSize-8 && uint(size-1) < 8 {
		storeWord(m.pageFor(addr, true, nil), off, size, val)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	m.WriteBytes(addr, buf[:size])
}

// Snapshot captures memory contents and valid regions at one moment. Its
// pages are shared: a write through any Memory that references one copies
// it first. Taking a snapshot copies the page table, leaf by leaf, never
// page contents.
type Snapshot struct {
	root    pageTable
	regions []Region
}

// Word returns the 8 bytes at addr, which must be 8-byte aligned, as the
// snapshot holds them: 0 on a page it never materialised.
func (s *Snapshot) Word(addr Addr) uint64 {
	if p := s.root.get(addr >> pageShift); p != nil {
		return binary.LittleEndian.Uint64(p.data[addr%PageSize:])
	}
	return 0
}

// Snapshot freezes the current state. The pages m owned now belong to the
// snapshot — other Memories may come to share them — so they leave the
// dirty list without reaching the free list.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{regions: append([]Region(nil), m.regions...)}
	s.root.copyFrom(&m.root)
	for _, pn := range m.dirty {
		m.root.get(pn).owner = nil
	}
	m.dirty = m.dirty[:0]
	m.base = s
	return s
}

// Restore resets memory to exactly the snapshot state. Restoring the
// snapshot the page table already derives from costs O(pages touched since):
// each dirty page is dropped or pointed back at the snapshot's, and its
// buffer recycled. Any other snapshot rebuilds the table, leaf by leaf.
func (m *Memory) Restore(s *Snapshot) {
	if s == m.base {
		for _, pn := range m.dirty {
			m.free = append(m.free, m.root.get(pn))
			m.root.set(pn, s.root.get(pn))
		}
	} else {
		m.root.copyFrom(&s.root)
		m.base = s
	}
	m.dirty = m.dirty[:0]
	m.regions = append(m.regions[:0], s.regions...)
	m.tlb = [tlbEntries]tlbEntry{}
}
