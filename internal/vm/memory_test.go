package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
				checkAgainstModel(t, m, &models[i], func() string {
					return fmt.Sprintf("seed %d step %d: memory %d", seed, step, i)
				})
				for w := 0; w < diffWins; w++ {
					for p := 0; p < diffWinSize/PageSize; p++ {
						base := diffWinBase(w) + uint64(p*PageSize)
						// A scalar read across the border between two materialised pages.
						if p+1 < diffWinSize/PageSize && models[i].mapped[base/PageSize] && models[i].mapped[base/PageSize+1] {
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

// The windows of the thread-level differential test, on the same bases:
// window 0 is one region of whole pages, window 1's region ends 100 bytes
// into its last page, and window 2's region is declared only while the
// program runs (AddRegion), so a Restore can take it away again.
var tlbWinEnd = [diffWins]int{diffWinSize, 2*PageSize + 100, diffWinSize}

const tlbLate = 2 // the window AddRegion declares

// tlbModel is the full-copy model of a machine's memory as its threads see
// it: window contents, the materialised pages, and whether the late
// window's region is declared.
type tlbModel struct {
	modelMem
	late bool
}

func (m *tlbModel) clone() tlbModel { return tlbModel{m.modelMem.clone(), m.late} }

type tlbSnap struct {
	real  *Snapshot
	model tlbModel
	by    int // the machine that took it
}

// end is the end offset of window w's valid bytes.
func (m *tlbModel) end(w int) int {
	if w == tlbLate && !m.late {
		return 0
	}
	return tlbWinEnd[w]
}

// tlbAccess is one planned thread access and what the model expects of it.
type tlbAccess struct {
	op        int // 0 Load, 1 Store, 2 LoadMarked, 3 StoreMarked, 4 Lock, 5 Unlock
	addr      Addr
	size      int
	val       uint64 // the value stored, or the value a load must return
	held      bool   // the TLB held the access's page when it ran
	sharedHit bool   // ... and that page was shared, so a write to it was its first
}

// TestThreadAccessEqualsFullCopyModel drives the thread-level accesses —
// Load, Store, their marked forms, and Lock/Unlock's read and write, the
// paths the TLB answers — on two machines that share one pool of
// snapshots, through a seeded random program that also takes Snapshots,
// restores the base snapshot, an older one and one the other machine
// took, and declares a region with AddRegion, and after every step
// compares both memories with a model that copies everything. Every load
// must return the model's bytes, and every invalid access must fault with
// the console line the kernel prints for it: a NULL dereference, a bad
// size, and a page fault — past the end of a region that ends mid-page,
// and across the end of a region from a page the TLB holds.
func TestThreadAccessEqualsFullCopyModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		machines := [2]*Machine{newTestMachine(), newTestMachine()}
		models := [2]tlbModel{{modelMem: modelMem{mapped: map[uint64]bool{}}}, {modelMem: modelMem{mapped: map[uint64]bool{}}}}
		for _, m := range machines {
			defer m.Close()
			for w := 0; w < tlbLate; w++ {
				m.Mem.AddRegion("win", diffWinBase(w), diffWinBase(w)+uint64(tlbWinEnd[w]))
			}
		}
		snaps := []tlbSnap{{machines[0].Mem.Snapshot(), models[0].clone(), 0}}
		machines[1].Mem.Restore(snaps[0].real)

		var hits, nullFaults, sizeFaults, midPageFaults, heldPastEnd, sharedWrites, added int
		var restoredBase, restoredOlder, restoredForeign int
		for step := 0; step < 1500; step++ {
			who := rng.Intn(2)
			m, model := machines[who], &models[who]
			switch op := rng.Intn(20); {
			case op < 14: // a thread runs a few accesses
				plan, fault := planTLBAccesses(rng, model)
				var got []uint64
				m.ResetRuntime()
				err := runOne(m, func(th *Thread) {
					for i := range plan {
						a := &plan[i]
						var p *page
						if e := th.m.Mem.tlb[(a.addr>>pageShift)%tlbEntries]; e.tag == a.addr>>pageShift+1 {
							p = e.p
							hits++
						}
						a.held = p != nil
						a.sharedHit = p != nil && p.owner == nil
						switch a.op {
						case 0:
							got = append(got, th.Load(insT, a.addr, a.size))
						case 1:
							th.Store(insT, a.addr, a.size, a.val)
						case 2:
							got = append(got, th.LoadMarked(insT, a.addr, a.size))
						case 3:
							th.StoreMarked(insT, a.addr, a.size, a.val)
						case 4:
							th.Lock(insT, a.addr)
						case 5:
							th.Unlock(insT, a.addr)
						}
					}
				})
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				loads := 0
				for _, a := range plan {
					if a.op == 0 || a.op == 2 {
						if loads >= len(got) {
							break
						}
						if got[loads] != a.val {
							t.Fatalf("seed %d step %d: machine %d load of %d bytes at %#x: %#x, want %#x", seed, step, who, a.size, a.addr, got[loads], a.val)
						}
						loads++
					}
					if (a.op == 1 || a.op == 3 || a.op == 4) && a.sharedHit {
						sharedWrites++
					}
				}
				if faults := m.Faults(); fault == "" && len(faults) > 0 {
					t.Fatalf("seed %d step %d: machine %d faulted: %q", seed, step, who, faults)
				} else if fault != "" {
					if len(faults) != 1 || m.Console.Lines()[0] != fault {
						t.Fatalf("seed %d step %d: machine %d printed %q, want %q", seed, step, who, m.Console.Lines(), fault)
					}
					last := plan[len(plan)-1]
					switch {
					case last.addr < PageSize:
						nullFaults++
					case last.size < 1 || last.size > 8:
						sizeFaults++
					case last.held:
						heldPastEnd++
					case last.addr/PageSize == (diffWinBase(1)+uint64(tlbWinEnd[1]))/PageSize:
						midPageFaults++
					}
				}
			case op < 16: // Snapshot
				snaps = append(snaps, tlbSnap{m.Mem.Snapshot(), model.clone(), who})
			case op < 19: // Restore
				s := snaps[rng.Intn(len(snaps))]
				if rng.Intn(2) == 0 {
					for _, c := range snaps {
						if c.real == m.Mem.base {
							s = c
						}
					}
				}
				switch {
				case s.real == m.Mem.base:
					restoredBase++
				case s.by != who:
					restoredForeign++
				default:
					restoredOlder++
				}
				m.Mem.Restore(s.real)
				*model = s.model.clone()
			default: // AddRegion
				if !model.late {
					m.Mem.AddRegion("late", diffWinBase(tlbLate), diffWinBase(tlbLate)+diffWinSize)
					model.late = true
					added++
				}
			}
			for i, m := range machines {
				checkAgainstModel(t, m.Mem, &models[i].modelMem, func() string {
					return fmt.Sprintf("seed %d step %d: machine %d", seed, step, i)
				})
			}
		}
		if hits == 0 || nullFaults == 0 || sizeFaults == 0 || midPageFaults == 0 || heldPastEnd == 0 || sharedWrites == 0 ||
			added == 0 || restoredBase == 0 || restoredOlder == 0 || restoredForeign == 0 {
			t.Fatalf("seed %d: program missed a case: %d TLB hits, %d NULL, %d size, %d mid-page and %d held-page faults, %d first writes to a held shared page, %d AddRegions, %d base, %d older and %d foreign restores",
				seed, hits, nullFaults, sizeFaults, midPageFaults, heldPastEnd, sharedWrites, added, restoredBase, restoredOlder, restoredForeign)
		}
	}
}

// planTLBAccesses plans one thread's accesses against model, applying
// them to it, up to and including the first invalid one, whose console
// line it returns ("" if every access is valid). Addresses lean towards
// page borders and region ends.
func planTLBAccesses(rng *rand.Rand, model *tlbModel) (plan []tlbAccess, fault string) {
	for n := rng.Intn(6) + 1; len(plan) < n; {
		w := rng.Intn(diffWins)
		size := rng.Intn(8) + 1
		var off int
		switch rng.Intn(5) {
		case 0:
			off = (rng.Intn(3)+1)*PageSize - rng.Intn(12)
		case 1:
			off = tlbWinEnd[w] - rng.Intn(12)
		default:
			off = rng.Intn(diffWinSize - 8)
		}
		addr := diffWinBase(w) + uint64(off)
		switch rng.Intn(40) {
		case 0:
			addr = uint64(rng.Intn(PageSize))
		case 1:
			size = 9 * rng.Intn(2)
		}
		op := rng.Intn(6)
		if op >= 4 {
			op, size = 4, 8
		}
		valid := addr >= PageSize && size >= 1 && size <= 8 && off+size <= model.end(w)
		if !valid {
			plan = append(plan, tlbAccess{op: op, addr: addr, size: size})
			switch {
			case size < 1 || size > 8:
				fault = fmt.Sprintf("BUG: invalid access size %d at %#x", size, addr)
			case addr < PageSize:
				fault = fmt.Sprintf("BUG: kernel NULL pointer dereference, address: %#016x", addr)
			default:
				fault = fmt.Sprintf("BUG: unable to handle page fault for address: %#016x", addr)
			}
			return plan, fault
		}
		word := func() []byte { return model.data[w][off : off+size] }
		model.touch(w, off, size)
		load := func(op int) {
			var buf [8]byte
			copy(buf[:], word())
			plan = append(plan, tlbAccess{op: op, addr: addr, size: size, val: binary.LittleEndian.Uint64(buf[:])})
		}
		store := func(op int, val uint64) {
			plan = append(plan, tlbAccess{op: op, addr: addr, size: size, val: val})
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], val)
			copy(word(), buf[:size])
		}
		switch op {
		case 0, 2:
			load(op)
		case 1, 3:
			store(op, rng.Uint64())
		case 4: // a lock cycle on a word cleared first if it is not free
			if binary.LittleEndian.Uint64(word()) != 0 {
				store(1, 0)
			}
			plan = append(plan, tlbAccess{op: 4, addr: addr, size: 8})
			binary.LittleEndian.PutUint64(word(), 1) // thread 0 holds it
			load(0)
			plan = append(plan, tlbAccess{op: 5, addr: addr, size: 8})
			binary.LittleEndian.PutUint64(word(), 0)
		}
	}
	return plan, ""
}

// checkAgainstModel compares every page model says is materialised with
// mem, byte for byte, and the page counts; where names the comparison.
func checkAgainstModel(t *testing.T, mem *Memory, model *modelMem, where func() string) {
	t.Helper()
	if mem.root.n != len(model.mapped) {
		t.Fatalf("%s: %d pages, the model %d", where(), mem.root.n, len(model.mapped))
	}
	got := make([]byte, PageSize)
	for w := 0; w < diffWins; w++ {
		for p := 0; p < diffWinSize/PageSize; p++ {
			base := diffWinBase(w) + uint64(p*PageSize)
			if !model.mapped[base/PageSize] {
				continue
			}
			mem.read(base, got)
			if want := model.data[w][p*PageSize : (p+1)*PageSize]; !bytes.Equal(got, want) {
				at := 0
				for got[at] == want[at] {
					at++
				}
				t.Fatalf("%s differs from the model at %#x: %#x, want %#x", where(), base+uint64(at), got[at], want[at])
			}
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

// BenchmarkGuestAccess times one guest access through Thread.Load and
// Store, with no trace and a scheduler that never preempts, and reports
// it as ns/access: a TLB hit (loads and stores in turn over 16 pages the
// TLB holds), a miss (loads from two pages that share a TLB entry, in
// turn, so each one checks its range, walks the table and refills the
// entry), and a first write to a page a snapshot shares (256 pages in
// turn, the snapshot restored before each round of 256, which the time
// includes).
func BenchmarkGuestAccess(b *testing.B) {
	const pages = testRegionSize / PageSize
	m := newTestMachine()
	defer m.Close()
	for p := uint64(0); p < pages; p++ {
		m.Mem.Write(testRegionBase+p*PageSize, 8, p)
	}
	snap := m.Mem.Snapshot()
	for _, c := range []struct {
		name   string
		access func(th *Thread, i int)
	}{
		{"hit", func(th *Thread, i int) {
			addr := testRegionBase + uint64(i%16)*PageSize + uint64(i%64)*8
			if i&1 == 0 {
				th.Load(insT, addr, 8)
			} else {
				th.Store(insT, addr, 8, uint64(i))
			}
		}},
		{"miss", func(th *Thread, i int) {
			th.Load(insT, testRegionBase+uint64(i&1)*tlbEntries*PageSize, 8)
		}},
		{"cow", func(th *Thread, i int) {
			if i%pages == 0 {
				th.m.Mem.Restore(snap)
			}
			th.Store(insT, testRegionBase+uint64(i%pages)*PageSize, 8, uint64(i))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			m.Mem.Restore(snap)
			m.ResetRuntime()
			m.Spawn("t0", testStackBase, func(th *Thread) {
				for i := 0; i < pages; i++ { // warm: fills the TLB and the free list
					c.access(th, i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.access(th, i)
				}
				b.StopTimer()
			})
			if err := m.Run(SeqScheduler{}, pages+b.N+2); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
		})
	}
}
