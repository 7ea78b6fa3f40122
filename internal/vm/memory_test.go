package vm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

// The address windows of the memory differential test: three runs of three
// pages, each ending one page past a boundary between two leaves of the page
// table, so a random program keeps landing on the same few pages, on page
// borders inside a leaf and on page borders between leaves, in six leaves.
const (
	diffWins    = 3
	diffWinSize = 3 * PageSize
	leafSpan    = leafPages * PageSize
)

func diffWinBase(w int) uint64 { return uint64(w+1)*3*leafSpan - 2*PageSize }

// modelMem is the naive model a Memory is checked against: each window as
// one flat buffer, plus the set of pages anything has touched (a read
// materialises a zero page just as a write does); a snapshot is a full copy.
type modelMem struct {
	data   [diffWins][diffWinSize]byte
	mapped map[uint64]bool // by page number
}

func (m *modelMem) clone() modelMem {
	c := modelMem{data: m.data, mapped: make(map[uint64]bool, len(m.mapped))}
	for pn := range m.mapped {
		c.mapped[pn] = true
	}
	return c
}

// touch marks the pages of [off, off+n) in window w as materialised.
func (m *modelMem) touch(w, off, n int) {
	for a := diffWinBase(w) + uint64(off); a < diffWinBase(w)+uint64(off+n); a = (a/PageSize + 1) * PageSize {
		m.mapped[a/PageSize] = true
	}
}

type snapPair struct {
	real  *Snapshot
	model modelMem
	by    int // the Memory that took it
}

// TestMemoryEqualsFullCopyModel drives two Memories that share one pool of
// snapshots through a seeded random program of Write / WriteBytes / Read /
// byte-range read / Snapshot / Restore and, after every step, compares each —
// every page the model says is materialised, byte for byte, the scalars
// across every page border, and the page count — with a model that copies
// everything. The program reaches every case the dirty-page Restore and the
// two-level page table distinguish: restore of the base snapshot, of an
// older one, of one the other Memory took, a Snapshot with dirty pages
// outstanding, pages born after the snapshot (one window is never touched
// before the first Snapshot), reads of pages nobody has written, and
// accesses that straddle a page border inside a leaf and between two.
func TestMemoryEqualsFullCopyModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mems := [2]*Memory{NewMemory(), NewMemory()}
		models := [2]modelMem{{mapped: map[uint64]bool{}}, {mapped: map[uint64]bool{}}}
		for _, m := range mems {
			for w := 0; w < diffWins; w++ {
				m.AddRegion("win", diffWinBase(w), diffWinBase(w)+diffWinSize)
			}
		}
		// Both start from one boot image covering the first two windows only.
		for w := 0; w < diffWins-1; w++ {
			boot := make([]byte, diffWinSize)
			rng.Read(boot)
			for i, m := range mems {
				m.WriteBytes(diffWinBase(w), boot)
				copy(models[i].data[w][:], boot)
				models[i].touch(w, 0, diffWinSize)
			}
		}
		snaps := []snapPair{{mems[0].Snapshot(), models[0].clone(), 0}}
		mems[1].Restore(snaps[0].real)

		var restoredBase, restoredOlder, restoredForeign, snapDirty, pageStraddles, leafStraddles, coldReads int
		straddle := func(w, off, n int) {
			first, last := (diffWinBase(w)+uint64(off))/PageSize, (diffWinBase(w)+uint64(off+n-1))/PageSize
			if first != last {
				pageStraddles++
			}
			if first/leafPages != last/leafPages {
				leafStraddles++
			}
		}
		for step := 0; step < 1500; step++ {
			who := rng.Intn(2)
			m, model := mems[who], &models[who]
			w := rng.Intn(diffWins)
			switch op := rng.Intn(24); {
			case op < 9: // Write, biased towards page borders
				size := rng.Intn(8) + 1
				off := rng.Intn(diffWinSize - 8)
				if rng.Intn(3) == 0 {
					off = (rng.Intn(2)+1)*PageSize - rng.Intn(8)
				}
				straddle(w, off, size)
				val := rng.Uint64()
				m.Write(diffWinBase(w)+uint64(off), size, val)
				for i := 0; i < size; i++ {
					model.data[w][off+i] = byte(val >> (8 * i))
				}
				model.touch(w, off, size)
			case op < 13: // WriteBytes, up to two page crossings
				n := rng.Intn(2*PageSize+100) + 1
				off := rng.Intn(diffWinSize - n)
				b := make([]byte, n)
				rng.Read(b)
				straddle(w, off, n)
				m.WriteBytes(diffWinBase(w)+uint64(off), b)
				copy(model.data[w][off:], b)
				model.touch(w, off, n)
			case op < 17: // Read or byte-range read, of pages nobody may have touched yet
				n := rng.Intn(8) + 1
				if op == 16 {
					n = rng.Intn(PageSize+100) + 1
				}
				off := rng.Intn(diffWinSize - n)
				if !model.mapped[(diffWinBase(w)+uint64(off))/PageSize] {
					coldReads++
				}
				got := make([]byte, n)
				m.read(diffWinBase(w)+uint64(off), got)
				if n <= 8 && op != 16 {
					var buf [8]byte
					binary.LittleEndian.PutUint64(buf[:], m.Read(diffWinBase(w)+uint64(off), n))
					got = buf[:n]
				}
				if want := model.data[w][off : off+n]; !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: memory %d read of %d bytes at window %d offset %#x: %x, want %x", seed, step, who, n, w, off, got, want)
				}
				model.touch(w, off, n)
			case op < 19: // Snapshot
				if len(m.dirty) > 0 {
					snapDirty++
				}
				snaps = append(snaps, snapPair{m.Snapshot(), model.clone(), who})
			default: // Restore
				s := snaps[rng.Intn(len(snaps))]
				if rng.Intn(2) == 0 && m.base != nil {
					for _, c := range snaps {
						if c.real == m.base {
							s = c
						}
					}
				}
				switch {
				case s.real == m.base:
					restoredBase++
				case s.by != who:
					restoredForeign++
				default:
					restoredOlder++
				}
				m.Restore(s.real)
				*model = s.model.clone()
			}
			for i, m := range mems {
				if m.root.n != len(models[i].mapped) {
					t.Fatalf("seed %d step %d: memory %d has %d pages, the model %d", seed, step, i, m.root.n, len(models[i].mapped))
				}
				for w := 0; w < diffWins; w++ {
					for p := 0; p < diffWinSize/PageSize; p++ {
						base := diffWinBase(w) + uint64(p*PageSize)
						if !models[i].mapped[base/PageSize] {
							continue
						}
						want := models[i].data[w][p*PageSize : (p+1)*PageSize]
						got := make([]byte, PageSize)
						m.read(base, got)
						if !bytes.Equal(got, want) {
							at := 0
							for got[at] == want[at] {
								at++
							}
							t.Fatalf("seed %d step %d: memory %d differs from the model at %#x: %#x, want %#x",
								seed, step, i, base+uint64(at), got[at], want[at])
						}
						// A scalar read across the border to the next page.
						if p+1 < diffWinSize/PageSize && models[i].mapped[base/PageSize+1] {
							off := (p+1)*PageSize - 3
							want := binary.LittleEndian.Uint64(models[i].data[w][off:])
							if got := m.Read(diffWinBase(w)+uint64(off), 8); got != want {
								t.Fatalf("seed %d step %d: memory %d Read across page %d of window %d: %#x, want %#x", seed, step, i, p+1, w, got, want)
							}
						}
					}
				}
				if m.root.n != len(models[i].mapped) {
					t.Fatalf("seed %d step %d: reading materialised pages of memory %d materialised more", seed, step, i)
				}
			}
		}
		// Pages the model never saw touched read as zero.
		for i, m := range mems {
			for w := 0; w < diffWins; w++ {
				got := make([]byte, diffWinSize)
				m.read(diffWinBase(w), got)
				if !bytes.Equal(got, models[i].data[w][:]) {
					t.Fatalf("seed %d: memory %d window %d differs from the model once every page is read", seed, i, w)
				}
			}
		}
		if restoredBase == 0 || restoredOlder == 0 || restoredForeign == 0 || snapDirty == 0 ||
			pageStraddles == leafStraddles || leafStraddles == 0 || coldReads == 0 {
			t.Fatalf("seed %d: program missed a case: %d base, %d older and %d foreign restores, %d snapshots over dirty pages, %d straddling writes of which %d between leaves, %d reads of untouched pages",
				seed, restoredBase, restoredOlder, restoredForeign, snapDirty, pageStraddles, leafStraddles, coldReads)
		}
	}
}

// TestMemoryAddressLimit: the page table's root is sized by the highest
// address in use, so a region may not end past AddrLimit, and a direct
// access past it panics instead of growing the root without bound.
func TestMemoryAddressLimit(t *testing.T) {
	m := NewMemory()
	m.AddRegion("top", AddrLimit-PageSize, AddrLimit)
	m.Write(AddrLimit-8, 8, 7)
	if got := m.Read(AddrLimit-8, 8); got != 7 || m.root.n != 1 {
		t.Fatalf("last word of the address space reads %d over %d pages", got, m.root.n)
	}
	for name, f := range map[string]func(){
		"region past the limit": func() { m.AddRegion("past", AddrLimit, AddrLimit+PageSize) },
		"write past the limit":  func() { m.Write(AddrLimit, 8, 1) },
		"read past the limit":   func() { m.Read(1<<60, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestRestoreAllocBudget is the gate on the per-trial reset: once warm,
// rewinding a machine after a two-thread run — Restore of the snapshot it
// runs from plus ResetRuntime — allocates nothing, and leaves the page
// count and every byte equal to the snapshot.
func TestRestoreAllocBudget(t *testing.T) {
	m := newTestMachine()
	const span = 8 * PageSize
	for off := uint64(0); off < span; off += 8 {
		m.Mem.Write(testRegionBase+off, 8, off)
	}
	snap := m.Mem.Snapshot()
	pages := m.Mem.root.n
	want := make([]byte, span)
	m.Mem.read(testRegionBase, want)

	lock := uint64(testRegionBase + span) // a page born after the snapshot
	trial := func() {
		body := func(th *Thread) {
			for i := 0; i < 64; i++ {
				th.Lock(insT, lock)
				th.Store(insT, testRegionBase+uint64(i%5)*PageSize+uint64(th.ID)*8, 8, uint64(i))
				th.Unlock(insT, lock)
			}
		}
		m.Spawn("t0", testStackBase, body)
		m.Spawn("t1", testStackBase+8192, body)
		flip := FuncScheduler(func(m *Machine, last *Thread, _ Event) *Thread {
			for _, th := range m.Runnable() {
				if th != last {
					return th
				}
			}
			return last
		})
		if err := m.Run(flip, 0); err != nil {
			t.Fatal(err)
		}
	}
	reset := func() {
		m.Mem.Restore(snap)
		m.ResetRuntime()
	}
	trial()
	reset() // warm: sizes the free list and the dirty list
	for i := 0; i < 10; i++ {
		trial()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reset()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("a warm Restore+ResetRuntime allocates %d times", n)
		}
	}
	trial()
	reset()
	if m.Mem.root.n != pages {
		t.Fatalf("pages after restore: %d, snapshot has %d", m.Mem.root.n, pages)
	}
	got := make([]byte, span)
	m.Mem.read(testRegionBase, got)
	if !bytes.Equal(got, want) {
		t.Fatal("memory differs from the snapshot after restore")
	}
	if m.Mem.root.n != pages {
		t.Fatal("reading snapshot pages materialised new ones")
	}
}
