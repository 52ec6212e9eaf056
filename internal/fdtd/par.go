package fdtd

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/mesh"
)

// Options configures the archetype (simulated-parallel or parallel)
// builds of the application.
type Options struct {
	// Mesh carries the archetype runtime options (message combining,
	// reduction algorithm, performance tally).
	Mesh mesh.Options
	// FarFieldCompensated switches the far-field accumulation to
	// Neumaier-compensated local sums combined in rank order — the
	// repository's "fixed" far field.  The default (false) is the
	// paper's strategy: plain local double sums combined by one
	// reduction at the end, which reorders the floating-point summation.
	FarFieldCompensated bool
	// HostIO, when set, has a host process (rank 0) compute the global
	// coefficient grids and redistribute them with scatter operations —
	// the archetype's "separate host process responsible for file I/O".
	// When clear, every process computes its local coefficients
	// directly ("perform I/O concurrently in all processes").
	HostIO bool
	// Inject, when non-nil, is checked by each rank at the top of each
	// time step and crashes its target (rank, step) by panicking with a
	// *fault.Crash, which the runtime supervisor converts into an error.
	// Nil injects nothing.
	Inject *fault.Injector
	// Cancel, when non-nil, is a cooperative cancellation token checked
	// by each rank at the top of each time step (fault.Canceller.Check):
	// once armed, every rank panics with a *fault.Cancelled at its next
	// step boundary, which the runtime supervisor converts into an
	// error.  The job service uses it for per-job timeouts and drain.
	Cancel *fault.Canceller
}

// DefaultOptions returns the archetype defaults used by the paper's
// experiments: combined messages, recursive-doubling reductions, host
// I/O, uncompensated far field.
func DefaultOptions() Options {
	return Options{Mesh: mesh.DefaultOptions(), HostIO: true}
}

// RunArchetype executes the mesh-archetype build of the application on
// p processes under the given runtime mode (mesh.Sim for the
// sequential simulated-parallel version, mesh.Par for the real
// parallel version) and returns the assembled result.  The x axis is
// split into p slabs: the py == 1 case of RunArchetype2D.
func RunArchetype(spec Spec, p int, mode mesh.Mode, opt Options) (*Result, error) {
	return RunArchetype2D(spec, p, 1, mode, opt)
}

// RunArchetype2D executes the mesh-archetype build of the application
// on a px-by-py 2-D process grid (the x and y axes of the domain are
// block-distributed; z stays whole).  This is the general form of the
// archetype's data distribution; RunArchetype's 1-D slabs are the
// special case py == 1.  Results are bitwise identical to the
// sequential program's near field, with the far field's summation
// reordered by the partition.
func RunArchetype2D(spec Spec, px, py int, mode mesh.Mode, opt Options) (*Result, error) {
	topo, err := decompose(spec, px, py)
	if err != nil {
		return nil, err
	}
	results, err := mesh.Run(topo.P(), mode, opt.Mesh, func(c *mesh.Comm) *Result {
		return spmd(c, spec, topo, opt, nil, spec.Steps)
	})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// SPMD is the per-process body of the archetype program, exported so
// that experiment harnesses can execute it under arbitrary scheduling
// policies (the determinacy experiment E4).  topo is the process grid
// (mesh.NewTopo2D(spec.NX, spec.NY, p, 1) for p slabs).  RunArchetype
// wires the same body to the standard Sim and Par runtimes.
func SPMD(c *mesh.Comm, spec Spec, topo *mesh.Topo2D, opt Options) *Result {
	return spmd(c, spec, topo, opt, nil, spec.Steps)
}

// decompose validates a spec/process-grid pair and returns the
// topology every build of the application shares: px*py processes,
// each owning an x-y block of the grid (z whole).
func decompose(spec Spec, px, py int) (*mesh.Topo2D, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if px <= 0 || py <= 0 || px > spec.NX || py > spec.NY {
		return nil, fmt.Errorf("fdtd: cannot distribute %dx%d planes over %dx%d processes",
			spec.NX, spec.NY, px, py)
	}
	topo := mesh.NewTopo2D(spec.NX, spec.NY, px, py)
	if spec.Boundary == BoundaryMur1 {
		// The Mur update reads the plane directly inside each face it
		// owns, so the edge blocks need >= 2 planes along both axes.
		for _, rs := range [][]grid.Range{topo.XRanges, topo.YRanges} {
			if rs[0].Len() < 2 || rs[len(rs)-1].Len() < 2 {
				return nil, fmt.Errorf("fdtd: Mur boundary requires the edge blocks to own >= 2 planes (%dx%d over %dx%d)",
					spec.NX, spec.NY, px, py)
			}
		}
	}
	return topo, nil
}

// spmd is the per-process body of the archetype program: alternating
// local computation (grid operations) and archetype communication
// (boundary exchanges, reductions, broadcast, host I/O redistribution),
// exactly the structure the mesh archetype prescribes.  It runs steps
// [0, until) from zero fields when start is nil; otherwise it runs
// [start.StepsDone, until) from the checkpointed fields, with empty
// far-field accumulators, so the reduced far field and work are that
// segment's contribution only.
func spmd(c *mesh.Comm, spec Spec, topo *mesh.Topo2D, opt Options, start *Checkpoint, until int) *Result {
	rank := c.Rank()
	xr, yr := topo.Block(rank)
	rx, ry := topo.Coords(rank)
	nz := spec.NZ
	f := newFields(spec, xr, yr)

	if opt.HostIO {
		// Host process builds the global material-coefficient grids (as
		// if read from an input file) and scatters them to the grid
		// processes.
		var gca, gcb, gda, gdb *grid.G3
		if rank == 0 {
			gca, gcb, gda, gdb = globalCoefficients(spec)
		}
		f.Ca = c.Scatter3DBlocks(gca, topo, nz, 0, 0, 0)
		f.Cb = c.Scatter3DBlocks(gcb, topo, nz, 0, 0, 0)
		f.Da = c.Scatter3DBlocks(gda, topo, nz, 0, 0, 0)
		f.Db = c.Scatter3DBlocks(gdb, topo, nz, 0, 0, 0)
	} else {
		f.fillCoefficientsLocal()
	}

	first := 0
	if start != nil {
		// Host scatters the checkpointed field state straight into the
		// ghosted local grids (only the host reads start's grids).
		// Ghost planes start zero, but every ghost the kernels read is
		// refreshed in-step by a boundary exchange before its first use.
		first = start.StepsDone
		scatter := func(g *grid.G3) *grid.G3 { return c.Scatter3DBlocks(g, topo, nz, 0, 1, 1) }
		f.Ex, f.Ey, f.Ez = scatter(start.Ex), scatter(start.Ey), scatter(start.Ez)
		f.Hx, f.Hy, f.Hz = scatter(start.Hx), scatter(start.Hy), scatter(start.Hz)
	}

	var ff *farField
	if spec.IsVersionC() {
		ff = newFarField(spec, opt.FarFieldCompensated)
	}
	var mur *murState
	if spec.Boundary == BoundaryMur1 {
		// Mur history is not checkpointable, so Mur runs always start
		// at step 0 and a fresh state is the right one.
		mur = newMurState(spec, xr, yr)
	}
	probeOwner := topo.Owner(spec.Probe[0], spec.Probe[1])
	// Neighbour ranks along each axis (-1 where the domain ends).
	st := newStepper(c, spec, f, mur, ff,
		topo.Rank(rx+1, ry), topo.Rank(rx-1, ry), topo.Rank(rx, ry+1), topo.Rank(rx, ry-1),
		rank == probeOwner)
	defer st.close()

	for n := first; n < until; n++ {
		opt.Inject.Check(rank, n)
		opt.Cancel.Check(rank, n)
		st.step(n)
	}

	// Far field: combine the per-process local double sums — one
	// reduction at the end of the computation, as in §4.3.
	res := &Result{Spec: spec}
	if ff != nil {
		a, fv := ff.finalize()
		if opt.FarFieldCompensated {
			// Rank-ordered combining keeps the result reproducible and
			// the compensated partials keep it accurate.
			res.FarA = c.AllReduceVecAlg(a, mesh.OpSum, mesh.AllToOne)
			res.FarF = c.AllReduceVecAlg(fv, mesh.OpSum, mesh.AllToOne)
		} else {
			res.FarA = c.AllReduceVec(a, mesh.OpSum)
			res.FarF = c.AllReduceVec(fv, mesh.OpSum)
		}
	}
	// Re-establish copy consistency of the probe series (global data
	// computed in one process only).
	res.Probe = c.BroadcastVec(st.probe, probeOwner)
	// Total work is a sum of integers, so the reduction is exact.
	res.Work = c.AllReduce(st.work, mesh.OpSum)

	// Grid-to-host redistribution of the final fields (file output):
	// the assembled grids land on the host, nil elsewhere.
	gather := func(g *grid.G3) *grid.G3 { return c.Gather3DBlocks(g, topo, nz, 0) }
	res.Ex, res.Ey, res.Ez = gather(f.Ex), gather(f.Ey), gather(f.Ez)
	res.Hx, res.Hy, res.Hz = gather(f.Hx), gather(f.Hy), gather(f.Hz)
	return res
}
