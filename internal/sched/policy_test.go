package sched

import (
	"math/rand"
	"slices"
	"testing"

	"snowboard/internal/detect"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

var (
	sIns1 = trace.DefIns("sched_test:w")
	sIns2 = trace.DefIns("sched_test:r")
)

func hintPMC() *pmc.PMC {
	return &pmc.PMC{
		Write: pmc.Key{Ins: sIns1, Addr: 0x100, Size: 8, Val: 1},
		Read:  pmc.Key{Ins: sIns2, Addr: 0x100, Size: 8, Val: 2},
	}
}

func TestChannelExercisedPositive(t *testing.T) {
	h := hintPMC()
	tr := &trace.Trace{}
	tr.Record(0, sIns1, trace.Write, 0x100, 8, 7, false, false, false, false, 0)
	tr.Record(1, sIns2, trace.Read, 0x100, 8, 7, false, false, false, false, 0)
	if !ChannelExercised(tr, h) {
		t.Fatal("flow write->read not recognized")
	}
}

func TestChannelExercisedWrongOrder(t *testing.T) {
	h := hintPMC()
	tr := &trace.Trace{}
	tr.Record(1, sIns2, trace.Read, 0x100, 8, 7, false, false, false, false, 0)
	tr.Record(0, sIns1, trace.Write, 0x100, 8, 7, false, false, false, false, 0)
	if ChannelExercised(tr, h) {
		t.Fatal("read-before-write counted as exercised")
	}
}

func TestChannelExercisedSameThreadDoesNotCount(t *testing.T) {
	h := hintPMC()
	tr := &trace.Trace{}
	tr.Record(0, sIns1, trace.Write, 0x100, 8, 7, false, false, false, false, 0)
	tr.Record(0, sIns2, trace.Read, 0x100, 8, 7, false, false, false, false, 0)
	if ChannelExercised(tr, h) {
		t.Fatal("same-thread flow counted as inter-thread communication")
	}
}

func TestChannelExercisedInterveningWrite(t *testing.T) {
	h := hintPMC()
	tr := &trace.Trace{}
	tr.Record(0, sIns1, trace.Write, 0x100, 8, 7, false, false, false, false, 0)
	tr.Record(1, sIns1, trace.Write, 0x100, 8, 9, false, false, false, false, 0)
	tr.Record(1, sIns2, trace.Read, 0x100, 8, 9, false, false, false, false, 0)
	if ChannelExercised(tr, h) {
		t.Fatal("overwritten channel counted as exercised")
	}
}

func TestChannelExercisedValueMismatch(t *testing.T) {
	h := hintPMC()
	tr := &trace.Trace{}
	tr.Record(0, sIns1, trace.Write, 0x100, 8, 7, false, false, false, false, 0)
	// Reader observed a different value than the write put there: the
	// dataflow did not come from this write.
	tr.Record(1, sIns2, trace.Read, 0x100, 8, 8, false, false, false, false, 0)
	if ChannelExercised(tr, h) {
		t.Fatal("mismatched value counted as exercised")
	}
}

func TestModeStrings(t *testing.T) {
	for _, m := range []Mode{ModeSnowboard, ModeSKI, ModeRandomWalk} {
		if m.String() == "?" {
			t.Fatalf("mode %d has no name", m)
		}
	}
}

func TestSnowboardPolicyDefaults(t *testing.T) {
	p := &SnowboardPolicy{}
	p.reset(rand.New(rand.NewSource(1)), []pmc.PMC{*hintPMC()}, &flagSet{})
	if switchDenom < 2 {
		t.Fatalf("implausible switch probability 1/%d", switchDenom)
	}
	want := []sig{sigOfKey(trace.Write, hintPMC().Write), sigOfKey(trace.Read, hintPMC().Read)}
	if !slices.Equal(p.current, want) {
		t.Fatalf("PMC accesses under test %v, want the hint's write and read %v", p.current, want)
	}
}

func TestOutcomeTrialOf(t *testing.T) {
	known := detect.Issue{Kind: detect.KindDataRace, WriteIns: sIns1, ReadIns: sIns2}
	torn := detect.Issue{Kind: detect.KindDataRace, WriteIns: sIns1, ReadIns: sIns2, Torn: true}
	panicked := detect.Issue{Kind: detect.KindPanic, Desc: "Kernel panic"}
	unknown := detect.Issue{Kind: detect.KindDataRace, WriteIns: sIns2, ReadIns: sIns1}
	out := Outcome{Issues: []detect.Issue{known, torn, panicked}, IssueTrials: []int{3, 5, 7}}
	for _, tc := range []struct {
		is   detect.Issue
		want int
	}{
		{known, 3},
		{torn, 5},
		{panicked, 7},
		// Matched by its deduplication key: a sighting differing only in
		// fields the key leaves out is the same issue.
		{detect.Issue{Kind: detect.KindPanic, Desc: "Kernel panic", BugID: 9}, 7},
		{unknown, -1},
		{detect.Issue{Kind: detect.KindPanic, Desc: "other"}, -1},
	} {
		if got := out.TrialOf(tc.is); got != tc.want {
			t.Errorf("TrialOf(%s) = %d, want %d", tc.is.ID(), got, tc.want)
		}
	}
	var empty Outcome
	if got := empty.TrialOf(known); got != -1 {
		t.Fatalf("TrialOf on an outcome without issues: %d", got)
	}
}
