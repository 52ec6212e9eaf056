package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"repro/internal/fdtd"
	"repro/internal/mesh"
	"repro/internal/serve"
)

// digest is the stored oracle for one paper workload.  The near field
// (final fields and probe series) comes from fdtd.RunSequential, the
// paper's original program.  Far-field sums legitimately depend on how
// the surface is split over processes, so the Version C far field comes
// from the same archetype at the benchmark's P under mesh.Sim.
type digest struct {
	FieldHash string `json:"field_hash"` // serve.ResultFieldHash of the six final grids
	ProbeHash string `json:"probe_hash"`
	FarHash   string `json:"far_hash,omitempty"` // Version C only
	FarLen    int    `json:"far_len,omitempty"`  // length of each far-field potential
}

// bitsHash digests the bit patterns of float64 slices, lengths
// included, in order.
func bitsHash(vs ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(len(v)))
		h.Write(b[:])
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// matches reports whether an answer with this field hash, probe series
// and far field is bitwise equal to the digest.
func (d digest) matches(fieldHash string, probe, farA, farF []float64) bool {
	if fieldHash != d.FieldHash || bitsHash(probe) != d.ProbeHash {
		return false
	}
	if d.FarHash == "" {
		return len(farA) == 0 && len(farF) == 0
	}
	return bitsHash(farA, farF) == d.FarHash
}

// digestOf is the digest of one solve's answer: its field hash, probe
// series and, where it has one, far field.
func digestOf(res *fdtd.Result) digest {
	d := digest{FieldHash: serve.ResultFieldHash(res), ProbeHash: bitsHash(res.Probe)}
	if len(res.FarA) > 0 || len(res.FarF) > 0 {
		d.FarHash = bitsHash(res.FarA, res.FarF)
		d.FarLen = len(res.FarA)
	}
	return d
}

// matchesDigest reports whether a paper solve is bitwise equal to its
// stored oracle.
func matchesDigest(res *fdtd.Result, d digest) bool {
	return res != nil && d.matches(serve.ResultFieldHash(res), res.Probe, res.FarA, res.FarF)
}

// matchesAnswer reports whether a service answer is bitwise equal to
// its oracle.
func matchesAnswer(jr *serve.JobResult, d digest) bool {
	return jr != nil && d.matches(jr.FieldHash, jr.Probe, jr.FarA, jr.FarF)
}

func loadDigests(path string) (map[string]digest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read digests: %w", err)
	}
	var m map[string]digest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return m, nil
}

// regenDigests recomputes every paper workload's oracle and writes the
// digest file.  It cross-checks the two oracles against each other: the
// simulated-parallel run must reproduce the sequential near field.
func regenDigests(path string) error {
	out := make(map[string]digest)
	for _, name := range []string{"table1", "figure2"} {
		spec := paperWorkloads[name].spec
		seq, err := fdtd.RunSequential(spec)
		if err != nil {
			return fmt.Errorf("%s sequential: %w", name, err)
		}
		d := digest{FieldHash: serve.ResultFieldHash(seq), ProbeHash: bitsHash(seq.Probe)}
		if spec.IsVersionC() {
			sim, err := fdtd.RunArchetype(spec, benchRanks, mesh.Sim, paperOptions())
			if err != nil {
				return fmt.Errorf("%s simulated-parallel: %w", name, err)
			}
			if !sim.NearFieldEqual(seq) {
				return fmt.Errorf("%s: simulated-parallel near field differs from the sequential program", name)
			}
			d.FarHash = bitsHash(sim.FarA, sim.FarF)
			d.FarLen = len(sim.FarA)
		}
		out[name] = d
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
