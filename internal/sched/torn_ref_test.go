package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/trace"
)

// refFindTornReads is detect.FindTornReads as it was before the thread
// switch gate, kept verbatim as the reference the gated oracle must equal.
//
// FindTornReads scans the trial for runs of same-instruction byte reads by
// one thread with a conflicting write from another thread sequenced inside
// the run — direct evidence that the reader observed a mix of old and new
// bytes.
func refFindTornReads(tr *trace.Trace) []detect.TornRead {
	n := tr.Len()
	var out []detect.TornRead
	for i := 0; i < n; {
		if tr.KindAt(i) != trace.Read || tr.StackAt(i) || tr.AtomicAt(i) {
			i++
			continue
		}
		aThread, aIns := tr.ThreadAt(i), tr.InsAt(i)
		// Collect the run of reads by the same thread+instruction over
		// adjacent ascending addresses (a memcpy loop).
		j := i
		for j+1 < n {
			// Allow interleaved accesses from other threads inside the run.
			next := -1
			for k := j + 1; k < n && k <= j+16; k++ {
				if tr.ThreadAt(k) == aThread {
					if tr.InsAt(k) == aIns && tr.KindAt(k) == trace.Read && tr.AddrAt(k) == tr.EndAt(j) {
						next = k
					}
					break
				}
			}
			if next < 0 {
				break
			}
			j = next
		}
		if j > i+1 { // a run of at least 3 parts
			lo, hi := tr.AddrAt(i), tr.EndAt(j)
			// Any conflicting write sequenced strictly inside the run?
			for k := i + 1; k < j; k++ {
				if tr.IsWriteAt(k) && tr.ThreadAt(k) != aThread && tr.AddrAt(k) < hi && tr.EndAt(k) > lo {
					out = append(out, detect.TornRead{
						ReadIns:  aIns,
						WriteIns: tr.InsAt(k),
						Addr:     lo,
						Len:      int(hi - lo),
					})
					break
				}
			}
		}
		i = j + 1
	}
	return out
}

// switchInRun reports whether some read is directly followed by another
// thread's access and continued, within 16 rows, by its own thread's next
// access: the only place a conflicting write can fall inside a run. The
// differential tests split their inputs by it, so both the oracle's early
// return and its full scan are compared, and check that no trace without
// one has a torn read.
func switchInRun(tr *trace.Trace) bool {
	for p := 0; p+1 < tr.Len(); p++ {
		if tr.KindAt(p) != trace.Read || tr.ThreadAt(p+1) == tr.ThreadAt(p) {
			continue
		}
		for k := p + 2; k < tr.Len() && k <= p+16; k++ {
			if tr.ThreadAt(k) == tr.ThreadAt(p) {
				if tr.InsAt(k) == tr.InsAt(p) && tr.KindAt(k) == trace.Read && tr.AddrAt(k) == tr.EndAt(p) {
					return true
				}
				break
			}
		}
	}
	return false
}

// tornTally counts what a differential run compared.
type tornTally struct{ traces, switched, torn int }

// check compares the oracle with the reference on tr and counts which of
// the oracle's paths tr takes.
func (c *tornTally) check(t *testing.T, tr *trace.Trace) {
	t.Helper()
	got, want := detect.FindTornReads(tr), refFindTornReads(tr)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FindTornReads %+v, reference %+v", got, want)
	}
	c.traces++
	if switchInRun(tr) {
		c.switched++
	} else if want != nil {
		t.Fatalf("torn reads %+v without a switch inside a run", want)
	}
	if want != nil {
		c.torn++
	}
}

func (c *tornTally) log(t *testing.T) {
	t.Helper()
	t.Logf("%d traces: %.1f%% return early, %.1f%% scanned, %.1f%% with a torn read",
		c.traces, 100*float64(c.traces-c.switched)/float64(c.traces),
		100*float64(c.switched)/float64(c.traces), 100*float64(c.torn)/float64(c.traces))
}

var tornIns = [3]trace.Ins{
	trace.DefIns("torn_test:memcpy_a"),
	trace.DefIns("torn_test:memcpy_b"),
	trace.DefIns("torn_test:store"),
}

// tornGaps are the lengths of the other threads' stretch inside a copy: a
// few rows, or 15 and 16, on either side of the lookahead's last row.
var tornGaps = [...]int{0, 1, 2, 5, 15, 16}

// genTornTrace reads data as a script of byte-copy loops: each a thread
// reading 1 to 8 adjacent parts of 1, 2 or 4 bytes with one instruction,
// with, before any part, a switch to other threads that issue tornGaps
// accesses — writes into the copied range or elsewhere, reads by a copy
// instruction — so a switch may tear the copy, leave it untorn, or end the
// run past the lookahead. Between loops come single accesses, which may be
// stack or lock-word traffic or break a run by the copying thread.
func genTornTrace(data []byte) *trace.Trace {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	tr := &trace.Trace{}
	for len(data) > 0 && tr.Len() < 4096 {
		op := next()
		th := op >> 2 % 3
		if op%4 == 0 {
			kind := trace.Kind(next() & 1)
			addr, size := uint64(0x100+next()%32), uint8(1)<<(next()%4)
			f := next()
			tr.Record(th, tornIns[f%3], kind, addr, size, 0, f&4 != 0, false, f&8 != 0, false, 0)
			continue
		}
		ins := tornIns[op>>4%2]
		base, size := uint64(0x100+next()%24), uint8(1)<<(next()%3)
		parts := 1 + next()%8
		for p := 0; p < parts; p++ {
			if sw := next(); sw%8 == 0 {
				for g := 0; g < tornGaps[sw>>3%len(tornGaps)]; g++ {
					other, x := (th+1+g%2)%3, next()
					switch x % 3 {
					case 0:
						tr.Record(other, tornIns[2], trace.Write, base+uint64(x>>2)%uint64(parts*int(size)), 1+uint8(x>>5), 0, false, false, false, false, 0)
					case 1:
						tr.Record(other, tornIns[2], trace.Write, 0x800+uint64(x), 1, 0, false, false, false, false, 0)
					default:
						tr.Record(other, ins, trace.Read, base+uint64(p)*uint64(size), size, 0, false, false, false, false, 0)
					}
				}
			}
			tr.Record(th, ins, trace.Read, base+uint64(p)*uint64(size), size, 0, false, false, false, false, 0)
		}
	}
	return tr
}

// TestTornReadsGeneratorReachesBoth: over generated traces the oracle
// equals the reference, and the generator reaches both the early return
// and the scan, the scan with and without a torn read.
func TestTornReadsGeneratorReachesBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c tornTally
	for i := 0; i < 3000; i++ {
		data := make([]byte, 8+rng.Intn(64))
		rng.Read(data)
		c.check(t, genTornTrace(data))
	}
	c.log(t)
	if c.switched < c.traces/10 || c.traces-c.switched < c.traces/10 || c.torn < c.traces/20 || c.torn == c.switched {
		t.Fatalf("generator misses a path: %+v", c)
	}
}

func FuzzTornReads(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		data := make([]byte, 16+rng.Intn(128))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c tornTally
		c.check(t, genTornTrace(data))
	})
}

// TestTornReadsEqualReference: on every trial trace of real explorations
// at seeds 3 and 7 the oracle equals the reference.
func TestTornReadsEqualReference(t *testing.T) {
	var c tornTally
	for _, seed := range []int64{3, 7} {
		env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
		set, tests := realTests(t, env, seed)
		fsck := func() []string { return env.K.FsckHost() }
		for i, ct := range tests {
			x := &Explorer{Env: env, Trials: 12, Seed: seed*1000 + int64(i), Mode: ModeSnowboard,
				Detect: detect.DefaultOptions(), KnownPMCs: set, Coverage: cover.New(), Fsck: fsck}
			unfusedExplore(x, ct, func(tr *trace.Trace) { c.check(t, tr) })
		}
	}
	c.log(t)
	if c.traces < 500 {
		t.Fatalf("only %d trial traces", c.traces)
	}
}
