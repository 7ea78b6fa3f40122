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

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr Addr) bool { return addr >= r.Lo && addr < r.Hi }

// Memory is the guest address space: sparse pages plus the set of valid
// regions. Pages referenced by a Snapshot are shared and copied on write.
//
// A Memory remembers the snapshot its page table was derived from (base)
// and the pages it has privately materialised since (dirty), so restoring
// base again — what every trial does — rewinds only those pages and keeps
// their buffers on a free list for the next trial's copies.
type Memory struct {
	pages   map[uint64]*page
	regions []Region
	base    *Snapshot // pages minus dirty equals base.pages; nil before the first Snapshot/Restore
	dirty   []uint64  // numbers of the pages this Memory owns
	free    []*page   // recycled buffers, owner already set
}

// NewMemory returns an empty address space with no valid regions.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// AddRegion declares [lo, hi) valid. Regions must not overlap.
func (m *Memory) AddRegion(name string, lo, hi Addr) Region {
	if lo >= hi {
		panic(fmt.Sprintf("vm: bad region %s [%#x,%#x)", name, lo, hi))
	}
	for _, r := range m.regions {
		if lo < r.Hi && r.Lo < hi {
			panic(fmt.Sprintf("vm: region %s [%#x,%#x) overlaps %s", name, lo, hi, r.Name))
		}
	}
	r := Region{Lo: lo, Hi: hi, Name: name}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Lo < m.regions[j].Lo })
	return r
}

// Valid reports whether the whole range [addr, addr+size) is inside one
// valid region.
func (m *Memory) Valid(addr Addr, size int) bool {
	for _, r := range m.regions {
		if r.Contains(addr) {
			return addr+uint64(size) <= r.Hi
		}
	}
	return false
}

// RegionOf returns the region containing addr, if any.
func (m *Memory) RegionOf(addr Addr) (Region, bool) {
	for _, r := range m.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
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
	m.pages[pn] = p
	m.dirty = append(m.dirty, pn)
	return p
}

func (m *Memory) pageFor(addr Addr, forWrite bool) *page {
	pn := addr / PageSize
	p := m.pages[pn]
	if p == nil {
		p = m.newPage(pn)
		p.data = [PageSize]byte{}
		return p
	}
	if forWrite && p.owner != m {
		shared := p
		p = m.newPage(pn)
		p.data = shared.data
	}
	return p
}

// read fills dst with the bytes at addr.
func (m *Memory) read(addr Addr, dst []byte) {
	for i := 0; i < len(dst); {
		p := m.pageFor(addr+uint64(i), false)
		i += copy(dst[i:], p.data[(addr+uint64(i))%PageSize:])
	}
}

// ReadBytes copies size bytes at addr into a fresh slice. The range must be
// valid; callers (the Thread access path) check validity first.
func (m *Memory) ReadBytes(addr Addr, size int) []byte {
	out := make([]byte, size)
	m.read(addr, out)
	return out
}

// WriteBytes stores b at addr.
func (m *Memory) WriteBytes(addr Addr, b []byte) {
	for i := 0; i < len(b); {
		p := m.pageFor(addr+uint64(i), true)
		i += copy(p.data[(addr+uint64(i))%PageSize:], b[i:])
	}
}

// Read returns the little-endian value of the size bytes at addr (size 1..8).
func (m *Memory) Read(addr Addr, size int) uint64 {
	var buf [8]byte
	m.read(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:])
}

// Write stores the low size bytes of val at addr, little-endian.
func (m *Memory) Write(addr Addr, size int, val uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	m.WriteBytes(addr, buf[:size])
}

// Snapshot captures the current memory contents. All current pages become
// shared: subsequent writes through any Memory that references them copy
// first. Taking a snapshot is O(pages) in map size only, not in bytes.
type Snapshot struct {
	pages   map[uint64]*page
	regions []Region
}

// Snapshot freezes the current state. The pages m owned now belong to the
// snapshot — other Memories may come to share them — so they leave the
// dirty list without reaching the free list.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		pages:   make(map[uint64]*page, len(m.pages)),
		regions: append([]Region(nil), m.regions...),
	}
	for pn, p := range m.pages {
		s.pages[pn] = p
	}
	for _, pn := range m.dirty {
		m.pages[pn].owner = nil
	}
	m.dirty = m.dirty[:0]
	m.base = s
	return s
}

// Restore resets memory to exactly the snapshot state. Restoring the
// snapshot the page table already derives from costs O(pages touched since):
// each dirty page is dropped or pointed back at the snapshot's, and its
// buffer recycled. Any other snapshot rebuilds the table.
func (m *Memory) Restore(s *Snapshot) {
	if s == m.base {
		for _, pn := range m.dirty {
			m.free = append(m.free, m.pages[pn])
			if p := s.pages[pn]; p != nil {
				m.pages[pn] = p
			} else {
				delete(m.pages, pn)
			}
		}
	} else {
		m.pages = make(map[uint64]*page, len(s.pages))
		for pn, p := range s.pages {
			m.pages[pn] = p
		}
		m.base = s
	}
	m.dirty = m.dirty[:0]
	m.regions = append(m.regions[:0], s.regions...)
}

// Pages reports how many pages are materialized (for tests and stats).
func (m *Memory) Pages() int { return len(m.pages) }
