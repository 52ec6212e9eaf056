package fdtd

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/mesh"
)

// TestSocketBackendIdentity runs the full application over a real
// loopback socket mesh and requires the near field and probe series to
// stay bitwise identical to the sequential program — the acceptance
// bar for the scale-out transport: changing the wire must not change a
// single bit of the physics.
func TestSocketBackendIdentity(t *testing.T) {
	// The twoD cases go through RunArchetype2D; its 2x2 blocks also
	// exchange along y.
	cases := []struct {
		px, py int
		twoD   bool
	}{{1, 1, false}, {2, 1, false}, {4, 1, false}, {2, 1, true}, {2, 2, true}}
	for _, spec := range []Spec{SpecSmallA(), SpecSmall()} {
		seq := mustSeq(t, spec)
		for _, tc := range cases {
			name := fmt.Sprintf("ffield=%v %dx%d socket", spec.IsVersionC(), tc.px, tc.py)
			tr, err := channel.NewLoopbackMesh(tc.px*tc.py, "tcp", mesh.WireCodec(), channel.SocketOptions{})
			if err != nil {
				t.Fatalf("%s: loopback: %v", name, err)
			}
			opt := DefaultOptions()
			opt.Mesh.Transport = tr
			var res *Result
			if tc.twoD {
				res, err = RunArchetype2D(spec, tc.px, tc.py, mesh.Par, opt)
			} else {
				res, err = RunArchetype(spec, tc.px, mesh.Par, opt)
			}
			tr.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !seq.NearFieldEqual(res) {
				t.Fatalf("%s: near field differs from sequential", name)
			}
			for i := range seq.Probe {
				if seq.Probe[i] != res.Probe[i] {
					t.Fatalf("%s: probe[%d] differs", name, i)
				}
			}
		}
	}
}

// TestWorkerBackendIdentity drives RunArchetypeWorker — the body each
// -procs worker process executes — with one DialMesh transport per
// rank, and requires rank 0's assembled result to match the sequential
// program bitwise.
func TestWorkerBackendIdentity(t *testing.T) {
	spec := SpecSmall()
	seq := mustSeq(t, spec)
	for _, p := range []int{1, 2, 4} {
		dir := t.TempDir()
		addrs := make([]string, p)
		for i := range addrs {
			addrs[i] = filepath.Join(dir, fmt.Sprintf("rank-%d.sock", i))
		}
		results := make([]*Result, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := channel.DialMesh("unix", addrs, r, mesh.WireCodec(), channel.SocketOptions{})
				if err != nil {
					errs[r] = err
					return
				}
				defer tr.Close()
				results[r], errs[r] = RunArchetypeWorker(spec, r, tr, DefaultOptions())
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("p=%d rank %d: %v", p, r, err)
			}
		}
		if !seq.NearFieldEqual(results[0]) {
			t.Fatalf("p=%d worker: near field differs from sequential", p)
		}
		// Every rank's broadcast probe copy must agree (copy consistency).
		for r := 0; r < p; r++ {
			for i := range seq.Probe {
				if seq.Probe[i] != results[r].Probe[i] {
					t.Fatalf("p=%d rank %d: probe[%d] differs", p, r, i)
				}
			}
		}
	}
}
