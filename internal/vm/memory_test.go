package vm

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// The address window of the memory differential test: a handful of pages,
// so a random program keeps landing on the same ones and on their borders.
const (
	diffBase  = testRegionBase
	diffPages = 6
	diffSize  = diffPages * PageSize
)

// modelMem is the naive model a Memory is checked against: the whole window
// as one flat buffer, a snapshot a full copy of it.
type modelMem [diffSize]byte

type snapPair struct {
	real  *Snapshot
	model modelMem
}

// TestMemoryEqualsFullCopyModel drives two Memories that share one pool of
// snapshots through a seeded random program of Write / WriteBytes /
// Snapshot / Restore and, after every step, compares each byte for byte
// (through Read and ReadBytes) with a model that copies everything. The
// program reaches every case the dirty-page Restore distinguishes: restore
// of the base snapshot, of an older one, of one the other Memory took, a
// Snapshot with dirty pages outstanding, pages born after the snapshot (two
// of the window's pages are never written before the first Snapshot), and
// accesses that straddle a page boundary.
func TestMemoryEqualsFullCopyModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mems := [2]*Memory{NewMemory(), NewMemory()}
		var models [2]modelMem
		for _, m := range mems {
			m.AddRegion("win", diffBase, diffBase+diffSize)
		}
		// Both start from one boot image covering pages 0..3 only.
		boot := make([]byte, 4*PageSize)
		rng.Read(boot)
		for i, m := range mems {
			m.WriteBytes(diffBase, boot)
			copy(models[i][:], boot)
		}
		snaps := []snapPair{{mems[0].Snapshot(), models[0]}}
		mems[1].Restore(snaps[0].real)

		var restoredBase, restoredOther, snapDirty, straddled int
		for step := 0; step < 1500; step++ {
			w := rng.Intn(2)
			m, model := mems[w], &models[w]
			switch op := rng.Intn(20); {
			case op < 9: // Write, biased towards page borders
				size := rng.Intn(8) + 1
				off := rng.Intn(diffSize - 8)
				if rng.Intn(3) == 0 {
					off = (rng.Intn(diffPages-1)+1)*PageSize - rng.Intn(8)
				}
				if off/PageSize != (off+size-1)/PageSize {
					straddled++
				}
				val := rng.Uint64()
				m.Write(diffBase+uint64(off), size, val)
				for i := 0; i < size; i++ {
					model[off+i] = byte(val >> (8 * i))
				}
			case op < 13: // WriteBytes, up to two page crossings
				n := rng.Intn(2*PageSize+100) + 1
				off := rng.Intn(diffSize - n)
				b := make([]byte, n)
				rng.Read(b)
				m.WriteBytes(diffBase+uint64(off), b)
				copy(model[off:], b)
			case op < 15: // Snapshot
				if len(m.dirty) > 0 {
					snapDirty++
				}
				snaps = append(snaps, snapPair{m.Snapshot(), *model})
			default: // Restore
				s := snaps[rng.Intn(len(snaps))]
				if rng.Intn(2) == 0 && m.base != nil {
					for _, c := range snaps {
						if c.real == m.base {
							s = c
						}
					}
				}
				if s.real == m.base {
					restoredBase++
				} else {
					restoredOther++
				}
				m.Restore(s.real)
				*model = s.model
			}
			for i, m := range mems {
				if got := m.ReadBytes(diffBase, diffSize); !bytes.Equal(got, models[i][:]) {
					at := 0
					for got[at] == models[i][at] {
						at++
					}
					t.Fatalf("seed %d step %d: memory %d differs from the model at offset %#x: %#x, want %#x",
						seed, step, i, at, got[at], models[i][at])
				}
				// A scalar read across each page border.
				for p := 1; p < diffPages; p++ {
					off := p*PageSize - 3
					var want uint64
					for k := 7; k >= 0; k-- {
						want = want<<8 | uint64(models[i][off+k])
					}
					if got := m.Read(diffBase+uint64(off), 8); got != want {
						t.Fatalf("seed %d step %d: memory %d Read across page %d: %#x, want %#x", seed, step, i, p, got, want)
					}
				}
			}
		}
		if restoredBase == 0 || restoredOther == 0 || snapDirty == 0 || straddled == 0 {
			t.Fatalf("seed %d: program missed a case: %d base restores, %d other restores, %d snapshots over dirty pages, %d straddling writes",
				seed, restoredBase, restoredOther, snapDirty, straddled)
		}
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
	pages := m.Mem.Pages()
	want := m.Mem.ReadBytes(testRegionBase, span)

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
	if m.Mem.Pages() != pages {
		t.Fatalf("pages after restore: %d, snapshot has %d", m.Mem.Pages(), pages)
	}
	if got := m.Mem.ReadBytes(testRegionBase, span); !bytes.Equal(got, want) {
		t.Fatal("memory differs from the snapshot after restore")
	}
	if m.Mem.Pages() != pages {
		t.Fatal("reading snapshot pages materialised new ones")
	}
}
