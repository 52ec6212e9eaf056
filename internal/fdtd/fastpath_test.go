package fdtd

import (
	"testing"

	"repro/internal/mesh"
)

// TestFastPathIdentity1D sweeps the fast-path configuration space of the
// 1-D slab decomposition — overlap on/off, serial vs tiled kernels, both
// runtimes, P in {1,2,4} — and requires the near field and probe series
// to stay bitwise identical to the sequential program.  This is the
// refinement-correctness claim of the performance work: every fast-path
// transformation permutes independent operations only, so by the
// paper's Theorem 1 the final state cannot change at all.  The sweep
// runs once per stencil path (Go loop, AVX2 assembly).
func TestFastPathIdentity1D(t *testing.T) {
	forEachStencilPath(t, func(t *testing.T) {
		for _, spec := range []Spec{SpecSmallA(), SpecSmall()} {
			seq := mustSeq(t, spec)
			for _, p := range []int{1, 2, 4} {
				for _, overlap := range []bool{true, false} {
					for _, workers := range []int{1, 4} {
						for _, mode := range []mesh.Mode{mesh.Sim, mesh.Par} {
							opt := DefaultOptions()
							opt.Mesh.Overlap = overlap
							opt.Mesh.Workers = workers
							res := mustArch(t, spec, p, mode, opt)
							if !seq.NearFieldEqual(res) {
								t.Fatalf("ffield=%v p=%d overlap=%v workers=%d %v: near field differs from sequential",
									spec.IsVersionC(), p, overlap, workers, mode)
							}
							for i := range seq.Probe {
								if seq.Probe[i] != res.Probe[i] {
									t.Fatalf("ffield=%v p=%d overlap=%v workers=%d %v: probe[%d] differs",
										spec.IsVersionC(), p, overlap, workers, mode, i)
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestFastPathIdentity2D repeats the sweep for the 2-D block
// decomposition, where the overlap split defers both the x- and y-axis
// ghost receives past the interior update.
func TestFastPathIdentity2D(t *testing.T) {
	forEachStencilPath(t, func(t *testing.T) {
		spec := SpecSmall()
		seq := mustSeq(t, spec)
		for _, pg := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2}} {
			for _, overlap := range []bool{true, false} {
				for _, workers := range []int{1, 4} {
					for _, mode := range []mesh.Mode{mesh.Sim, mesh.Par} {
						opt := DefaultOptions()
						opt.Mesh.Overlap = overlap
						opt.Mesh.Workers = workers
						res, err := RunArchetype2D(spec, pg[0], pg[1], mode, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !seq.NearFieldEqual(res) {
							t.Fatalf("px=%d py=%d overlap=%v workers=%d %v: near field differs from sequential",
								pg[0], pg[1], overlap, workers, mode)
						}
					}
				}
			}
		}
	})
}

// TestTiledKernelDeterminism checks that the tile pool's work splitting
// is invisible in the results: any worker count produces the same near
// field, probe, and work tally as the serial kernel, on both stencil
// paths.  Run under -race (make race) the Go path also checks that
// concurrent tiles never touch the same cells (the race detector does
// not see assembly accesses).
func TestTiledKernelDeterminism(t *testing.T) {
	forEachStencilPath(t, func(t *testing.T) {
		spec := SpecSmall()
		base := func() Options {
			opt := DefaultOptions()
			opt.Mesh.Workers = 1
			return opt
		}
		want := mustArch(t, spec, 2, mesh.Par, base())
		for _, workers := range []int{2, 3, 4, 7} {
			opt := base()
			opt.Mesh.Workers = workers
			got := mustArch(t, spec, 2, mesh.Par, opt)
			if !want.NearFieldEqual(got) {
				t.Fatalf("workers=%d: near field differs from serial kernel", workers)
			}
			if want.Work != got.Work {
				t.Fatalf("workers=%d: work tally %v, serial %v", workers, got.Work, want.Work)
			}
		}
	})
}
