package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeOverlappingAndNested(t *testing.T) {
	// root [0,100] has children a [10,40], b [30,60] (overlapping a) and
	// c [70,90]; c has a nested child d [75,80]. Children of root cover
	// [10,60] and [70,90] = 70, so root's self time is 30.
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 90},
		{ID: 5, Parent: 4, Name: "d", Start: 75, End: 80},
	}
	selfTimes(spans)
	want := map[string]int64{"root": 30, "a": 30, "b": 30, "c": 15, "d": 5}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self time of %s = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestRecorderParentsAndFile(t *testing.T) {
	rec := newRecorder("unit-7")
	rec.do("outer", func() {
		rec.do("inner", func() { time.Sleep(time.Millisecond) })
		rec.do("inner", func() {})
	})
	if d, n := rec.total("inner"); n != 2 || d < time.Millisecond {
		t.Fatalf("total(inner) = %v over %d spans", d, n)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 3 || got[0].Name != "outer" || got[0].Parent != 0 {
		t.Fatalf("spans = %+v", got)
	}
	for _, s := range got[1:] {
		if s.Parent != got[0].ID || s.Trace != "unit-7" || s.Start < got[0].Start || s.End > got[0].End {
			t.Errorf("inner span %+v is not a child of %+v", s, got[0])
		}
	}
	if got[0].Self > got[0].End-got[0].Start-int64(time.Millisecond) {
		t.Errorf("outer self time %d does not exclude its children", got[0].Self)
	}
	// A nil recorder times without recording.
	var none *recorder
	if d := none.do("x", func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("nil recorder timed %v", d)
	}
}
