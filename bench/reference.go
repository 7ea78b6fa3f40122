package main

import "time"

// The host this runs on shares its memory system with neighbours, and the
// same campaign's wall time drifts by ±10 % over a minute while a pure
// arithmetic loop stays flat. A run therefore interleaves a fixed reference
// kernel with its units and states its times in reference-host seconds: the
// measured time scaled by nominal ÷ measured reference time. The kernel
// leans on what the guest simulation leans on — goroutine handoffs over
// unbuffered channels (one per guest thread switch) and map-heavy
// allocation (oracles, coverage, identification) — and calls nothing in
// the program under test, so a change to the program cannot move it.

// referenceNominal is a typical referenceSample on the 2-vCPU reference
// host (27 ms at its quietest, 34 ms under its neighbours' load), so that
// scaled and measured times agree there on average.
const referenceNominal = 30 * time.Millisecond

// referenceRate is how many samples a run takes per second of unit wall:
// about a tenth of the run, which puts the error of their median (a sample
// varies ~10 %) near 1.5 %, well under the drift it removes.
const referenceRate = 3

var referenceSink uint64

// referenceSample runs the reference kernel once and returns its wall time.
func referenceSample() time.Duration {
	t0 := time.Now()
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	var x uint64
	for i := 0; i < 30000; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	for round := uint64(0); round < 8; round++ {
		m := make(map[uint64]uint64)
		v := round + 1
		for i := 0; i < 20000; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			m[v>>40] += v
		}
		x += uint64(len(m))
	}
	referenceSink += x
	return time.Since(t0)
}

// hostSpeed is nominal ÷ median measured reference time: below 1 on a host
// (or at a moment) slower than the reference, above 1 on a faster one. The
// median, because one sample that a collection or the scheduler interrupts
// says nothing about the seconds of work around it.
func hostSpeed(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = float64(s)
	}
	return float64(referenceNominal) / median(v)
}
