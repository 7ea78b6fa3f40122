package queue

import (
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

func testJob(id int) Job {
	prog := &corpus.Prog{Calls: []corpus.Call{
		{Nr: kernel.SysMountNr},
	}}
	return Job{
		ID:     id,
		Writer: prog,
		Reader: prog.Clone(),
		Hint: &pmc.PMC{
			Write: pmc.Key{Addr: 0x100, Size: 8, Val: 1},
			Read:  pmc.Key{Addr: 0x100, Size: 8, Val: 2},
		},
		Pair: pmc.Pair{Writer: 0, Reader: 1},
	}
}

// adoptList is an adoption list of n PMCs.
func adoptList(n int) *AdoptList {
	ps := make([]pmc.PMC, n)
	for i := range ps {
		ps[i] = pmc.PMC{
			Write: pmc.Key{Ins: 7, Addr: 0x200 + uint64(i), Size: 4, Val: 1 << 40},
			Read:  pmc.Key{Ins: 9, Addr: 0x200 + uint64(i), Size: 4},
		}
	}
	l, err := NewAdoptList(ps)
	if err != nil {
		panic(err)
	}
	return l
}

// adoptingJob is testJob(id) naming adoption list l, with one composed
// hint.
func adoptingJob(id int, l *AdoptList) Job {
	j := testJob(id)
	j.Adopt = l.Digest
	j.Extra = []pmc.PMC{{Write: pmc.Key{Addr: 0x300, Size: 1, Val: 3}, Read: pmc.Key{Addr: 0x300, Size: 1}, DFLeader: true}}
	return j
}

func TestQueueFIFO(t *testing.T) {
	q := New()
	for i := 0; i < 3; i++ {
		if err := q.Push(testJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := q.Stats().Pending; n != 3 {
		t.Fatalf("pending %d", n)
	}
	for i := 0; i < 3; i++ {
		ls, err := q.TryLease()
		if err != nil || ls.Job.ID != i {
			t.Fatalf("lease %d: %v %v", i, ls.Job.ID, err)
		}
		if err := q.Ack(ls.ID); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTryLeaseEmpty(t *testing.T) {
	q := New()
	if _, err := q.TryLease(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err: %v", err)
	}
	q.Close()
	if _, err := q.TryLease(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err after close: %v", err)
	}
	if err := q.Push(testJob(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v", err)
	}
}

func TestResultsDrain(t *testing.T) {
	q := New()
	_ = q.Report(JobResult{JobID: 1})
	_ = q.Report(JobResult{JobID: 2})
	rs := q.Results()
	if len(rs) != 2 {
		t.Fatalf("results: %d", len(rs))
	}
	if len(q.Results()) != 0 {
		t.Fatal("results not drained")
	}
}

func TestJobEncodeDecode(t *testing.T) {
	j := adoptingJob(5, adoptList(3))
	j.Trials, j.Version = 4, "5.3.10"
	data, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJob(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 5 || got.Hint == nil || got.Hint.Read.Val != 2 || got.Trials != 4 || got.Version != "5.3.10" ||
		got.Adopt != j.Adopt || !slices.Equal(got.Extra, j.Extra) {
		t.Fatalf("decoded: %+v", got)
	}
	// A job names no corpus to resolve its programs from: one that carries
	// none, as a v5 by-reference job did, is refused.
	for _, raw := range []string{`{"id":1}`, `{"id":1,"corpus":"abcd","pair":{"Writer":0,"Reader":1}}`} {
		if _, err := DecodeJob([]byte(raw)); err == nil {
			t.Fatalf("job without programs decoded: %s", raw)
		}
	}
	if _, err := DecodeJob([]byte(`{"id":1,"writer":{"calls":[{"nr":999}]},"reader":{"calls":[]}}`)); err == nil {
		t.Fatal("invalid program decoded")
	}
}

// TestAdoptListCodec: an adoption list's binary form decodes to the same
// PMCs under the same digest, and its digest tells lists apart; an empty
// list is none, and one past MaxAdoptBytes is refused.
func TestAdoptListCodec(t *testing.T) {
	var ps []pmc.PMC
	digests := make(map[string]bool)
	for i := range 200 {
		k := pmc.Key{Ins: trace.Ins(i * 977), Addr: uint64(i) << (i % 57), Size: 8, Val: uint64(i) << 40}
		ps = append(ps, pmc.PMC{Write: k, Read: pmc.Key{Addr: uint64(i)}, DFLeader: i%2 == 0})
		l, err := NewAdoptList(ps)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeAdoptList(l.enc)
		if err != nil || !slices.Equal(back.PMCs, ps) || back.Digest != l.Digest || back.Len() != l.Len() || back.Known().Len() != len(ps) {
			t.Fatalf("%d PMCs: decoded %+v (%v), want %+v", len(ps), back, err, l)
		}
		digests[l.Digest] = true
	}
	if len(digests) != 200 {
		t.Fatalf("200 lists share %d digests", len(digests))
	}
	if l, err := NewAdoptList(nil); l != nil || err != nil || l.Known() != nil || l.Len() != 0 {
		t.Fatalf("an empty list is %+v (%v), want none", l, err)
	}
	wide := pmc.Key{Ins: 1 << 31, Addr: 1 << 63, Size: 8, Val: 1 << 63}
	big := make([]pmc.PMC, MaxAdoptBytes/len(pmc.AppendPMC(nil, pmc.PMC{Write: wide, Read: wide}))+1)
	for i := range big {
		big[i] = pmc.PMC{Write: wide, Read: pmc.Key{Ins: 1 << 31, Addr: 1<<63 + uint64(i), Size: 8, Val: 1 << 63}}
	}
	if _, err := NewAdoptList(big); err == nil {
		t.Fatalf("a list of %d wide PMCs was taken past MaxAdoptBytes", len(big))
	}
}

// TestDecodeAdoptListRefusesMalformed: an adoption list declaring more
// PMCs than its bytes hold, or more than MaxAdopt, or none, is refused
// before anything is sized by it; a list of exactly MaxAdopt decodes.
func TestDecodeAdoptListRefusesMalformed(t *testing.T) {
	// minimal is one PMC of pmc.MinPMCBytes: two one-byte-field keys and
	// DFLeader.
	minimal := pmc.AppendPMC(nil, pmc.PMC{Write: pmc.Key{Size: 1}, Read: pmc.Key{Size: 1}})
	if len(minimal) != pmc.MinPMCBytes {
		t.Fatalf("a minimal PMC is %d bytes, want %d", len(minimal), pmc.MinPMCBytes)
	}
	list := func(count uint64, pmcs int) []byte {
		b := binary.AppendUvarint(nil, count)
		for range pmcs {
			b = append(b, minimal...)
		}
		return b
	}
	for _, tc := range []struct {
		name        string
		count, pmcs int
		ok          bool
	}{
		{"count past the bytes", 1 << 40, 2, false},
		{"one PMC short", 3, 2, false},
		{"no PMCs", 0, 0, false},
		{"past the cap", MaxAdopt + 1, MaxAdopt + 1, false},
		{"at the cap", MaxAdopt, MaxAdopt, true},
	} {
		got, err := decodeAdoptList(list(uint64(tc.count), tc.pmcs))
		if (err == nil) != tc.ok {
			t.Errorf("%s: decodeAdoptList error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && len(got.PMCs) != tc.pmcs {
			t.Errorf("%s: %d PMCs decoded, want %d", tc.name, len(got.PMCs), tc.pmcs)
		}
		if !tc.ok && err != nil && !errors.Is(err, ErrBadAdoptList) {
			t.Errorf("%s: decodeAdoptList error %v, want ErrBadAdoptList", tc.name, err)
		}
	}
	// A count the bytes cannot hold sizes nothing: refusing MaxAdopt
	// declared PMCs that carry two allocates far less than a list of
	// MaxAdopt PMCs (72 bytes each).
	short := list(MaxAdopt, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeAdoptList(short)
	runtime.ReadMemStats(&after)
	if err == nil || after.TotalAlloc-before.TotalAlloc > 1<<20 {
		t.Errorf("a list declaring %d PMCs in %d bytes: error %v after allocating %d bytes", MaxAdopt, len(short), err, after.TotalAlloc-before.TotalAlloc)
	}
}

func TestTCPRoundtrip(t *testing.T) {
	q := New()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialOpts(srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Lease(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("lease on empty: %v", err)
	}
	if err := q.Push(testJob(9)); err != nil {
		t.Fatal(err)
	}
	ls, err := c.Lease()
	if err != nil || ls.Job.ID != 9 {
		t.Fatalf("lease: %v %v", ls.Job.ID, err)
	}
	if err := c.Ack(ls.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(JobResult{JobID: 9, Trials: 3, Outcome: []byte(`{"Trials":3}`)}); err != nil {
		t.Fatal(err)
	}
	rs := q.Results()
	if len(rs) != 1 || rs[0].JobID != 9 || string(rs[0].Outcome) != `{"Trials":3}` {
		t.Fatalf("results: %+v", rs)
	}
}

func TestTCPMultipleWorkers(t *testing.T) {
	q := New()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const jobs = 40
	for i := 0; i < jobs; i++ {
		if err := q.Push(testJob(i)); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	seen := make(map[int]bool)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialOpts(srv.Addr(), DialOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for {
				ls, err := c.Lease()
				if errors.Is(err, ErrEmpty) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				j := ls.Job
				if err := c.Ack(ls.ID); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[j.ID] {
					t.Errorf("job %d delivered twice", j.ID)
				}
				seen[j.ID] = true
				mu.Unlock()
				_ = c.Report(JobResult{JobID: j.ID})
			}
		}()
	}
	wg.Wait()
	if len(seen) != jobs {
		t.Fatalf("delivered %d/%d jobs", len(seen), jobs)
	}
	if got := len(q.Results()); got != jobs {
		t.Fatalf("results %d/%d", got, jobs)
	}
}
