package vm

import (
	"math/rand"
	"slices"
	"testing"

	"snowboard/internal/trace"
)

// lockModel is what the lock differential test holds a machine to: per
// thread the locks it holds, kept as a plain list, and the bookkeeping the
// machine had before each thread carried its own stack of held locks — a
// waiter list per lock, appended to by every thread that blocks, woken and
// dropped at the release.
type lockModel struct {
	held    [][]uint64       // per thread, in acquisition order
	want    []uint64         // per thread, the lock it is acquiring or last acquired
	state   []ThreadState    // per thread
	waiters map[uint64][]int // per lock, the threads that blocked on it since its last release
	expect  [][]trace.LockSet
}

func (l *lockModel) release(addr uint64) {
	for _, w := range l.waiters[addr] {
		if l.state[w] == BlockedLock && l.want[w] == addr {
			l.state[w] = Runnable
		}
	}
	delete(l.waiters, addr)
}

// logAccess notes that thread t's next access must be recorded under held.
func (l *lockModel) logAccess(t int, held []uint64) {
	l.expect[t] = append(l.expect[t], trace.InternLocks(held))
}

// TestLockProgramEqualsModel runs seeded random lock programs — nested
// acquisitions up to six deep, releases in and out of acquisition order,
// TryLock on free, held and own locks, one thread that faults holding
// whatever it holds — on four threads under a scheduler that switches at
// random at every event, and checks two things against lockModel: every
// recorded access carries exactly the interned set of the locks its thread
// held, and after every event exactly the threads the waiter lists would
// have woken are runnable. Blocking acquisitions take locks in ascending
// order, so no program deadlocks.
func TestLockProgramEqualsModel(t *testing.T) {
	const threads, locks = 4, 6
	lockAddr := func(i int) uint64 { return testRegionBase + 0x100 + uint64(i)*8 }
	var outOfOrder, deep, tryHit, tryMiss, faultWoke, blocked int
	for seed := int64(1); seed <= 60; seed++ {
		m := newTestMachine()
		var tr trace.Trace
		m.SetTrace(&tr)
		model := &lockModel{
			held: make([][]uint64, threads), want: make([]uint64, threads), state: make([]ThreadState, threads),
			waiters: make(map[uint64][]int), expect: make([][]trace.LockSet, threads),
		}
		for id := 0; id < threads; id++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(id)))
			faultAt := -1
			if id == 0 {
				faultAt = 10 + rng.Intn(30)
			}
			m.Spawn("t", testStackBase+uint64(id)*trace.StackSize, func(th *Thread) {
				held := &model.held[id]
				for step := 0; step < 60; step++ {
					if step == faultAt && len(*held) > 0 {
						for _, l := range *held {
							if len(model.waiters[l]) > 0 {
								faultWoke++
							}
							model.release(l)
						}
						*held = nil
						th.Fault("BUG: lock test fault")
					}
					l := lockAddr(rng.Intn(locks))
					switch op := rng.Intn(10); {
					case op < 3: // Lock
						if len(*held) >= 6 || (len(*held) > 0 && l <= slices.Max(*held)) {
							continue
						}
						model.want[id] = l
						model.logAccess(id, append(slices.Clone(*held), l))
						th.Lock(insT, l)
						*held = append(*held, l)
						if len(*held) > 2 {
							deep++
						}
					case op < 5: // TryLock of any lock, its own included
						free := !slices.Contains(*held, l) && m.Mem.Read(l, 8) == 0
						if free {
							tryHit++
							*held = append(*held, l)
							model.logAccess(id, *held)
						} else if !slices.Contains(*held, l) {
							tryMiss++
							model.logAccess(id, *held) // the failed attempt reads the lock word
						}
						if got := th.TryLock(insT, l); got != free {
							t.Errorf("seed %d thread %d: TryLock(%#x) = %v, want %v", seed, id, l, got, free)
						}
					case op < 8: // Unlock, of the latest lock or of any
						if len(*held) == 0 {
							continue
						}
						i := len(*held) - 1
						if rng.Intn(3) == 0 {
							i = rng.Intn(len(*held))
						}
						if i != len(*held)-1 {
							outOfOrder++
						}
						l = (*held)[i]
						*held = slices.Delete(*held, i, i+1)
						model.release(l)
						model.logAccess(id, *held)
						th.Unlock(insT, l)
					default: // a data access under the locks held
						model.logAccess(id, *held)
						th.Store(insT, testRegionBase+uint64(id)*8, 8, uint64(step))
					}
					for _, l := range *held {
						if !th.HoldsLock(l) {
							t.Errorf("seed %d thread %d: HoldsLock(%#x) is false for a held lock", seed, id, l)
						}
					}
					if th.HoldsLock(lockAddr(locks)) {
						t.Errorf("seed %d thread %d: holds a lock nobody takes", seed, id)
					}
				}
				for len(*held) > 0 { // finish holding nothing: a sibling may be waiting
					l := (*held)[len(*held)-1]
					*held = (*held)[:len(*held)-1]
					model.release(l)
					model.logAccess(id, *held)
					th.Unlock(insT, l)
				}
			})
		}
		pick := rand.New(rand.NewSource(seed))
		err := m.Run(FuncScheduler(func(m *Machine, last *Thread, ev Event) *Thread {
			switch ev.Kind {
			case EvBlocked:
				blocked++
				model.state[last.ID] = BlockedLock
				model.waiters[model.want[last.ID]] = append(model.waiters[model.want[last.ID]], last.ID)
			case EvDone, EvFault:
				model.state[last.ID] = Done
			}
			var want, got []int
			for id, st := range model.state {
				if st == Runnable {
					want = append(want, id)
				}
			}
			for _, th := range m.Runnable() {
				got = append(got, th.ID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d after %d accesses: threads %v runnable, the waiter lists say %v", seed, tr.Len(), got, want)
			}
			return m.Runnable()[pick.Intn(len(got))]
		}), 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The k-th access of a thread was recorded under the k-th set it logged.
		seen := make([]int, threads)
		for i := 0; i < tr.Len(); i++ {
			a := tr.At(i)
			if k := seen[a.Thread]; k >= len(model.expect[a.Thread]) || a.Locks != model.expect[a.Thread][k] {
				t.Fatalf("seed %d: access %d, the %d-th of thread %d, recorded under locks %v, want %v",
					seed, i, k, a.Thread, a.Locks.Addrs(), model.expect[a.Thread][min(k, len(model.expect[a.Thread])-1)].Addrs())
			}
			seen[a.Thread]++
		}
		for id, n := range seen {
			if len(model.expect[id]) != n {
				t.Fatalf("seed %d: thread %d logged %d accesses, the trace has %d", seed, id, len(model.expect[id]), n)
			}
		}
		m.Close()
	}
	t.Logf("%d releases out of order, %d acquisitions past two deep, TryLock %d hits and %d misses, %d blocked acquisitions, %d locks with waiters released by a fault",
		outOfOrder, deep, tryHit, tryMiss, blocked, faultWoke)
	if outOfOrder == 0 || deep == 0 || tryHit == 0 || tryMiss == 0 || blocked == 0 || faultWoke == 0 {
		t.Fatal("the programs missed a case")
	}
}
