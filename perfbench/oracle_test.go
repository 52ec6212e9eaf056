package main

import (
	"math"
	"testing"

	"repro/internal/fdtd"
	"repro/internal/mesh"
	"repro/internal/serve"
)

func flip(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }

// TestFlippedBitRaisesErrorRatio proves the oracle check can fail: one
// flipped bit anywhere a digest covers turns a correct answer into a
// counted error.  The paper workloads and the service share the check.
func TestFlippedBitRaisesErrorRatio(t *testing.T) {
	spec := fdtd.SpecSmall()
	seq, err := fdtd.RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fdtd.RunArchetype(spec, benchRanks, mesh.Sim, paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := digest{FieldHash: serve.ResultFieldHash(seq), ProbeHash: bitsHash(seq.Probe), FarHash: digestOf(sim).FarHash}
	if d.FarHash == "" {
		t.Fatal("the test spec has no far field")
	}

	fresh := func() *fdtd.Result {
		res, err := fdtd.RunArchetype(spec, benchRanks, mesh.Par, paperOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var clean tally
	clean.record(nil, matchesDigest(fresh(), d))
	if r := clean.errorRatio(); r != 0 {
		t.Fatalf("unmodified answer: error_ratio = %v, want 0", r)
	}

	flips := map[string]func(r *fdtd.Result){
		"field": func(r *fdtd.Result) { r.Ez.Set(6, 5, 4, flip(r.Ez.At(6, 5, 4))) },
		"probe": func(r *fdtd.Result) { r.Probe[len(r.Probe)-1] = flip(r.Probe[len(r.Probe)-1]) },
		"far":   func(r *fdtd.Result) { r.FarF[0] = flip(r.FarF[0]) },
	}
	for name, f := range flips {
		res := fresh()
		f(res)
		var tl tally
		tl.record(nil, matchesDigest(res, d))
		if tl.errorRatio() != 1 {
			t.Errorf("%s bit flipped: error_ratio = %v, want 1", name, tl.errorRatio())
		}
		if r, err := tl.result(nil); err != nil || r.Correct {
			t.Errorf("%s bit flipped: result marked correct", name)
		}
	}
}
