package fdtd

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// Result is the observable outcome of an FDTD run: the final fields,
// the probe time series, and (Version C) the far-field potentials.
type Result struct {
	Spec                   Spec
	Ex, Ey, Ez, Hx, Hy, Hz *grid.G3
	Probe                  []float64
	FarA, FarF             []float64
	// Work is the number of work units performed (field-component
	// updates plus far-field point contributions); it drives the
	// machine performance model's calibration.
	Work float64
}

// NearFieldEqual reports bitwise equality of the final fields and the
// probe series — the paper's test for the near-field calculations.
func (r *Result) NearFieldEqual(o *Result) bool {
	if len(r.Probe) != len(o.Probe) {
		return false
	}
	for i := range r.Probe {
		if r.Probe[i] != o.Probe[i] {
			return false
		}
	}
	return r.Ex.Equal(o.Ex) && r.Ey.Equal(o.Ey) && r.Ez.Equal(o.Ez) &&
		r.Hx.Equal(o.Hx) && r.Hy.Equal(o.Hy) && r.Hz.Equal(o.Hz)
}

// FarFieldEqual reports bitwise equality of the far-field potentials.
func (r *Result) FarFieldEqual(o *Result) bool {
	if len(r.FarA) != len(o.FarA) || len(r.FarF) != len(o.FarF) {
		return false
	}
	for i := range r.FarA {
		if r.FarA[i] != o.FarA[i] {
			return false
		}
	}
	for i := range r.FarF {
		if r.FarF[i] != o.FarF[i] {
			return false
		}
	}
	return true
}

// FarFieldMaxRelDiff returns the maximum relative difference between
// two runs' far-field potentials, scaled by the largest magnitude in
// the reference series.
func (r *Result) FarFieldMaxRelDiff(o *Result) float64 {
	scale := 0.0
	for _, v := range r.FarA {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for _, v := range r.FarF {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	max := 0.0
	for i := range r.FarA {
		if d := math.Abs(r.FarA[i]-o.FarA[i]) / scale; d > max {
			max = d
		}
	}
	for i := range r.FarF {
		if d := math.Abs(r.FarF[i]-o.FarF[i]) / scale; d > max {
			max = d
		}
	}
	return max
}

// MaxFieldMagnitude returns the largest |value| across the six final
// field grids — used by the stability tests.
func (r *Result) MaxFieldMagnitude() float64 {
	max := 0.0
	for _, g := range []*grid.G3{r.Ex, r.Ey, r.Ez, r.Hx, r.Hy, r.Hz} {
		for i := 0; i < g.NX(); i++ {
			for j := 0; j < g.NY(); j++ {
				for _, v := range g.Pencil(i, j) {
					if a := math.Abs(v); a > max {
						max = a
					}
				}
			}
		}
	}
	return max
}

// RunSequential executes the original sequential program: full-domain
// arrays, straightforward triple loops, no notion of processes.  This
// is the starting point of the refinement pipeline; the archetype
// versions are measured against it.
func RunSequential(spec Spec) (*Result, error) {
	return RunSequentialOpts(spec, false)
}

// RunSequentialOpts is RunSequential with the far-field accumulation
// mode exposed: compensated=true uses Neumaier accumulation (the
// high-accuracy reference for the far-field divergence analysis).
func RunSequentialOpts(spec Spec, compensated bool) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return runSequential(spec, compensated, nil), nil
}

// globalCoefficients builds the four update-coefficient grids over the
// whole domain — the sequential program's input, and the host's data
// in the archetype builds' host I/O.
func globalCoefficients(spec Spec) (ca, cb, da, db *grid.G3) {
	nx, ny, nz := spec.NX, spec.NY, spec.NZ
	ca = grid.New3(nx, ny, nz, 0)
	cb = grid.New3(nx, ny, nz, 0)
	da = grid.New3(nx, ny, nz, 0)
	db = grid.New3(nx, ny, nz, 0)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				a, b, c, d := spec.Coefficients(i, j, k)
				ca.Set(i, j, k, a)
				cb.Set(i, j, k, b)
				da.Set(i, j, k, c)
				db.Set(i, j, k, d)
			}
		}
	}
	return ca, cb, da, db
}

// runSequential is the body of the sequential program.  It runs steps
// [0, spec.Steps) from zero fields when start is nil; otherwise it
// continues a copy of the checkpointed state from start.StepsDone, so
// a resumed run is bitwise identical to an uninterrupted one.  The
// caller validates spec (and refuses mid-run Mur checkpoints, whose
// boundary history is not saved).
func runSequential(spec Spec, compensated bool, start *Checkpoint) *Result {
	nx, ny, nz := spec.NX, spec.NY, spec.NZ
	var ex, ey, ez, hx, hy, hz *grid.G3
	first, probe, work := 0, make([]float64, 0, spec.Steps), 0.0
	if start == nil {
		zero := func() *grid.G3 { return grid.New3(nx, ny, nz, 0) }
		ex, ey, ez, hx, hy, hz = zero(), zero(), zero(), zero(), zero(), zero()
	} else {
		ex, ey, ez = start.Ex.Clone(), start.Ey.Clone(), start.Ez.Clone()
		hx, hy, hz = start.Hx.Clone(), start.Hy.Clone(), start.Hz.Clone()
		first, probe, work = start.StepsDone, append(probe, start.Probe...), start.Work
	}
	ca, cb, da, db := globalCoefficients(spec)

	var ff *farField
	if spec.IsVersionC() {
		ff = newFarField(spec, compensated)
		if start != nil {
			copy(ff.A, start.FarA)
			copy(ff.F, start.FarF)
		}
	}
	var mur *murState
	if spec.Boundary == BoundaryMur1 {
		mur = newMurState(spec, grid.Range{Lo: 0, Hi: nx}, grid.Range{Lo: 0, Hi: ny})
	}

	for n := first; n < spec.Steps; n++ {
		if mur != nil {
			mur.snapshot(ey, ez, ex)
		}
		// Electric field updates.
		for i := 0; i < nx; i++ {
			for j := 1; j < ny; j++ {
				for k := 1; k < nz; k++ {
					ex.Set(i, j, k, ca.At(i, j, k)*ex.At(i, j, k)+
						cb.At(i, j, k)*((hz.At(i, j, k)-hz.At(i, j-1, k))-(hy.At(i, j, k)-hy.At(i, j, k-1))))
					work++
				}
			}
		}
		for i := 1; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 1; k < nz; k++ {
					ey.Set(i, j, k, ca.At(i, j, k)*ey.At(i, j, k)+
						cb.At(i, j, k)*((hx.At(i, j, k)-hx.At(i, j, k-1))-(hz.At(i, j, k)-hz.At(i-1, j, k))))
					work++
				}
			}
		}
		for i := 1; i < nx; i++ {
			for j := 1; j < ny; j++ {
				for k := 0; k < nz; k++ {
					ez.Set(i, j, k, ca.At(i, j, k)*ez.At(i, j, k)+
						cb.At(i, j, k)*((hy.At(i, j, k)-hy.At(i-1, j, k))-(hx.At(i, j, k)-hx.At(i, j-1, k))))
					work++
				}
			}
		}
		// Soft source on Ez.
		addSource(ez, spec, n, grid.Range{Lo: 0, Hi: nx}, grid.Range{Lo: 0, Hi: ny})
		// Absorbing boundary, if configured.
		if mur != nil {
			work += float64(mur.apply(ey, ez, ex))
		}
		// Magnetic field updates.
		for i := 0; i < nx; i++ {
			for j := 0; j < ny-1; j++ {
				for k := 0; k < nz-1; k++ {
					hx.Set(i, j, k, da.At(i, j, k)*hx.At(i, j, k)+
						db.At(i, j, k)*((ey.At(i, j, k+1)-ey.At(i, j, k))-(ez.At(i, j+1, k)-ez.At(i, j, k))))
					work++
				}
			}
		}
		for i := 0; i < nx-1; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz-1; k++ {
					hy.Set(i, j, k, da.At(i, j, k)*hy.At(i, j, k)+
						db.At(i, j, k)*((ez.At(i+1, j, k)-ez.At(i, j, k))-(ex.At(i, j, k+1)-ex.At(i, j, k))))
					work++
				}
			}
		}
		for i := 0; i < nx-1; i++ {
			for j := 0; j < ny-1; j++ {
				for k := 0; k < nz; k++ {
					hz.Set(i, j, k, da.At(i, j, k)*hz.At(i, j, k)+
						db.At(i, j, k)*((ex.At(i, j+1, k)-ex.At(i, j, k))-(ey.At(i+1, j, k)-ey.At(i, j, k))))
					work++
				}
			}
		}
		// Probe.
		probe = append(probe, ez.At(spec.Probe[0], spec.Probe[1], spec.Probe[2]))
		// Far field: every surface point contributes to a future sample.
		if ff != nil {
			work += float64(ff.accumulate(n, ex, ey, ez, hx, hy, hz, grid.Range{Lo: 0, Hi: nx}, grid.Range{Lo: 0, Hi: ny}))
		}
	}

	res := &Result{
		Spec: spec,
		Ex:   ex, Ey: ey, Ez: ez, Hx: hx, Hy: hy, Hz: hz,
		Probe: probe,
		Work:  work,
	}
	if ff != nil {
		res.FarA, res.FarF = ff.finalize()
	}
	return res
}

// String summarises a result for diagnostics.
func (r *Result) String() string {
	kind := "A (near field)"
	if r.Spec.IsVersionC() {
		kind = "C (near + far field)"
	}
	return fmt.Sprintf("fdtd version %s %dx%dx%d steps=%d work=%.0f",
		kind, r.Spec.NX, r.Spec.NY, r.Spec.NZ, r.Spec.Steps, r.Work)
}
