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
	tr.Append(trace.Access{Thread: 0, Kind: trace.Write, Ins: sIns1, Addr: 0x100, Size: 8, Val: 7})
	tr.Append(trace.Access{Thread: 1, Kind: trace.Read, Ins: sIns2, Addr: 0x100, Size: 8, Val: 7})
	if !ChannelExercised(tr, h) {
		t.Fatal("flow write->read not recognized")
	}
}

func TestChannelExercisedWrongOrder(t *testing.T) {
	h := hintPMC()
	tr := &trace.Trace{}
	tr.Append(trace.Access{Thread: 1, Kind: trace.Read, Ins: sIns2, Addr: 0x100, Size: 8, Val: 7})
	tr.Append(trace.Access{Thread: 0, Kind: trace.Write, Ins: sIns1, Addr: 0x100, Size: 8, Val: 7})
	if ChannelExercised(tr, h) {
		t.Fatal("read-before-write counted as exercised")
	}
}

func TestChannelExercisedSameThreadDoesNotCount(t *testing.T) {
	h := hintPMC()
	tr := &trace.Trace{}
	tr.Append(trace.Access{Thread: 0, Kind: trace.Write, Ins: sIns1, Addr: 0x100, Size: 8, Val: 7})
	tr.Append(trace.Access{Thread: 0, Kind: trace.Read, Ins: sIns2, Addr: 0x100, Size: 8, Val: 7})
	if ChannelExercised(tr, h) {
		t.Fatal("same-thread flow counted as inter-thread communication")
	}
}

func TestChannelExercisedInterveningWrite(t *testing.T) {
	h := hintPMC()
	tr := &trace.Trace{}
	tr.Append(trace.Access{Thread: 0, Kind: trace.Write, Ins: sIns1, Addr: 0x100, Size: 8, Val: 7})
	tr.Append(trace.Access{Thread: 1, Kind: trace.Write, Ins: sIns1, Addr: 0x100, Size: 8, Val: 9})
	tr.Append(trace.Access{Thread: 1, Kind: trace.Read, Ins: sIns2, Addr: 0x100, Size: 8, Val: 9})
	if ChannelExercised(tr, h) {
		t.Fatal("overwritten channel counted as exercised")
	}
}

func TestChannelExercisedValueMismatch(t *testing.T) {
	h := hintPMC()
	tr := &trace.Trace{}
	tr.Append(trace.Access{Thread: 0, Kind: trace.Write, Ins: sIns1, Addr: 0x100, Size: 8, Val: 7})
	// Reader observed a different value than the write put there: the
	// dataflow did not come from this write.
	tr.Append(trace.Access{Thread: 1, Kind: trace.Read, Ins: sIns2, Addr: 0x100, Size: 8, Val: 8})
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
	unknown := detect.Issue{Kind: detect.KindDataRace, WriteIns: sIns2, ReadIns: sIns1}
	out := Outcome{IssueTrial: map[string]int{known.ID(): 3}}
	if got := out.TrialOf(known); got != 3 {
		t.Fatalf("TrialOf known issue: %d", got)
	}
	if got := out.TrialOf(unknown); got != -1 {
		t.Fatalf("TrialOf unknown issue: %d", got)
	}
}
