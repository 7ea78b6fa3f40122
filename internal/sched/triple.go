package sched

import (
	"snowboard/internal/corpus"
	"snowboard/internal/detect"
	"snowboard/internal/pmc"
)

// Three-thread exploration — the §6 extension. A TripleTest runs one writer
// and two readers concurrently; the scheduling hint is a write+2-read PMC
// triple, and Algorithm 2's machinery (performed/coming accesses, flags,
// liveness) applies unchanged since the policy is thread-count agnostic.

// TripleTest is a three-thread concurrent test.
type TripleTest struct {
	Writer  *corpus.Prog
	ReaderA *corpus.Prog
	ReaderB *corpus.Prog
	Hint    *pmc.Triple
	Pair    pmc.TriplePair
}

// ExploreTriple runs up to Trials interleaving trials of the triple.
func (x *Explorer) ExploreTriple(tt TripleTest) Outcome {
	out := Outcome{ExercisedTrial: -1, ExposedTrial: -1, IssueTrial: make(map[string]int)}
	trials := x.Trials
	if trials <= 0 {
		trials = 64
	}

	var currentPMCs []pmc.PMC
	if tt.Hint != nil {
		currentPMCs = append(currentPMCs,
			pmc.PMC{Write: tt.Hint.Write, Read: tt.Hint.ReadA},
			pmc.PMC{Write: tt.Hint.Write, Read: tt.Hint.ReadB},
		)
	}
	sc := x.scratchFor()
	flags, tr, rng := &sc.flags, &sc.tr, sc.rng
	progs := []*corpus.Prog{tt.Writer, tt.ReaderA, tt.ReaderB}

	for trial := 0; trial < trials; trial++ {
		rng.Seed(x.Seed + int64(trial))
		policy := &sc.policy
		policy.reset(rng, currentPMCs, flags)
		res := x.Env.RunMany(progs, policy, tr)
		x.Env.M.SetTrace(nil)
		out.Trials = trial + 1
		out.Switches += policy.Switches
		out.Steps += res.Steps

		if tt.Hint != nil && !out.Exercised {
			a := pmc.PMC{Write: tt.Hint.Write, Read: tt.Hint.ReadA}
			b := pmc.PMC{Write: tt.Hint.Write, Read: tt.Hint.ReadB}
			if ChannelExercised(tr, &a) && ChannelExercised(tr, &b) {
				out.Exercised = true
				out.ExercisedTrial = trial
			}
		}

		in := detect.TrialInput{
			Console:  res.Console,
			Trace:    tr,
			Hung:     res.Hung,
			Deadlock: res.Deadlock,
		}
		if x.Fsck != nil {
			in.PostScan = x.Fsck()
		}
		if sc.record(&out, trial, sc.oracle.Analyze(in, x.Detect)) {
			break
		}
	}
	return out
}
