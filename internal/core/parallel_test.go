package core

import (
	"math/rand"
	"testing"
)

func TestParallelMiningMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 4; trial++ {
		nw := randomNetwork(rng, 18, 45, 5, 4)
		for _, alpha := range []float64{0, 0.4} {
			serialFI := TCFI(nw, Options{Alpha: alpha})
			parallelFI := TCFI(nw, Options{Alpha: alpha, Parallelism: 4})
			if !serialFI.Equal(parallelFI) {
				t.Fatalf("trial %d α=%v: parallel TCFI differs from serial", trial, alpha)
			}
			serialFA := TCFA(nw, Options{Alpha: alpha})
			parallelFA := TCFA(nw, Options{Alpha: alpha, Parallelism: 4})
			if !serialFA.Equal(parallelFA) {
				t.Fatalf("trial %d α=%v: parallel TCFA differs from serial", trial, alpha)
			}
			serialTCS := TCS(nw, Options{Alpha: alpha, Epsilon: 0.2})
			parallelTCS := TCS(nw, Options{Alpha: alpha, Epsilon: 0.2, Parallelism: 4})
			if !serialTCS.Equal(parallelTCS) {
				t.Fatalf("trial %d α=%v: parallel TCS differs from serial", trial, alpha)
			}
			// The statistics counters must also agree: parallelism changes
			// the schedule, not the work.
			if serialFI.Stats.MPTDCalls != parallelFI.Stats.MPTDCalls ||
				serialFI.Stats.CandidatesPruned != parallelFI.Stats.CandidatesPruned {
				t.Fatalf("trial %d α=%v: parallel TCFI counters differ", trial, alpha)
			}
		}
	}
}
