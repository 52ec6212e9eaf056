package fdtd

// The per-step fast path of spmd, the one distributed body, which
// serves 1-D slabs, 2-D blocks and checkpointed segments alike.  A
// stepper owns the hoisted exchange groups (so the hot loop passes
// preexisting slices through the variadic exchange calls without
// allocating), the per-rank tile pool, and the probe/work
// accumulators; step(n) advances the local section one leapfrog step.
//
// Two schedules, bitwise identical by construction:
//
//   - Unsplit (Options.Mesh.Overlap off): the original archetype
//     sequence — exchange, update, exchange, update.
//   - Overlapped (Overlap on, the default): each exchange is split
//     into its send half and its receive half, and the cells that read
//     no ghost plane — the interior window — are updated between the
//     two, while the messages are in flight.  The remaining boundary
//     windows run after the receive.  The windows disjointly cover the
//     local section and each cell's update expression is unchanged, so
//     by the determinacy argument of Theorem 1 the final state is the
//     same: deferring a receive past computation that does not read
//     the received cells permutes independent operations only.
//
// Ghost dependencies (one-plane stencils):
//
//   E updates read H at li-1 and lj-1  -> interior is li >= 1, lj >= 1
//   H updates read E at li+1 and lj+1  -> interior is li < nxl-1,
//                                          lj < nyl-1
//
// Sends still precede receives on every rank, so the simulated-
// parallel execution never reads an empty channel.

import (
	"runtime"

	"repro/internal/grid"
	"repro/internal/mesh"
)

type stepper struct {
	c    *mesh.Comm
	spec Spec
	f    *Fields
	tp   *tilePool

	overlap    bool
	exchangeY  bool
	xUp, xDown int
	yUp, yDown int

	// Exchange groups, hoisted so the step loop allocates no slices:
	// eX/eY are the H components whose lower ghosts the E update reads;
	// hX/hY are the E components whose upper ghosts the H update reads.
	eX, eY, hX, hY []*grid.G3

	mur *murState
	ff  *farField

	probeOwner             bool
	probeI, probeJ, probeK int
	probe                  []float64
	work                   float64
}

// resolveWorkers maps Options.Workers to a concrete worker count:
// 0 means one worker per available CPU.
func resolveWorkers(opt mesh.Options) int {
	if opt.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return opt.Workers
}

// newStepper prepares the per-rank step state.  Neighbour ranks are -1
// where the domain ends; a rank with no y neighbour (every rank of a
// 1-D slab decomposition) makes no y-axis exchange calls at all, so a
// slab run pays no extra flush or phase span for the unused axis.  The
// caller must call close when stepping is done, or the tile workers
// leak.
func newStepper(c *mesh.Comm, spec Spec, f *Fields, mur *murState, ff *farField,
	xUp, xDown, yUp, yDown int, probeOwner bool) *stepper {
	opt := c.Options()
	return &stepper{
		c: c, spec: spec, f: f,
		tp:        newTilePool(resolveWorkers(opt)),
		overlap:   opt.Overlap,
		exchangeY: yUp >= 0 || yDown >= 0,
		xUp:       xUp, xDown: xDown, yUp: yUp, yDown: yDown,
		eX:  []*grid.G3{f.Hy, f.Hz},
		eY:  []*grid.G3{f.Hx, f.Hz},
		hX:  []*grid.G3{f.Ey, f.Ez},
		hY:  []*grid.G3{f.Ex, f.Ez},
		mur: mur, ff: ff,
		probeOwner: probeOwner,
		probeI:     spec.Probe[0] - f.XR.Lo,
		probeJ:     spec.Probe[1] - f.YR.Lo,
		probeK:     spec.Probe[2],
	}
}

func (s *stepper) close() { s.tp.close() }

// updateETiled runs updateERange over the window, fanned across the
// tile pool along the x-pencil range.
func (s *stepper) updateETiled(li0, li1, lj0, lj1 int) int {
	if li1 <= li0 || lj1 <= lj0 {
		return 0
	}
	f := s.f
	return s.tp.run(li0, li1, func(a, b int) int {
		return updateERange(f, a, b, lj0, lj1)
	})
}

func (s *stepper) updateHTiled(li0, li1, lj0, lj1 int) int {
	if li1 <= li0 || lj1 <= lj0 {
		return 0
	}
	f := s.f
	return s.tp.run(li0, li1, func(a, b int) int {
		return updateHRange(f, a, b, lj0, lj1)
	})
}

// step advances the local section from step n to n+1.
func (s *stepper) step(n int) {
	c, f := s.c, s.f
	nxl, nyl := f.XR.Len(), f.YR.Len()

	// E half-step.  The E update reads Hy, Hz one plane below along x
	// (and Hx, Hz one plane below along y in 2-D): refresh the lower
	// ghost planes.
	var w int
	if s.overlap {
		c.StartSendUpTo(grid.AxisX, s.xUp, s.eX...)
		if s.exchangeY {
			c.StartSendUpTo(grid.AxisY, s.yUp, s.eY...)
		}
		if s.mur != nil {
			s.mur.snapshot(f.Ey, f.Ez, f.Ex)
		}
		// Interior cells read no ghosts: update them while the
		// boundary messages are in flight.
		w = s.updateETiled(1, nxl, 1, nyl)
		c.FinishSendUpTo(grid.AxisX, s.xDown, s.eX...)
		if s.exchangeY {
			c.FinishSendUpTo(grid.AxisY, s.yDown, s.eY...)
		}
		// Boundary strips (li == 0, then lj == 0 minus the corner
		// already covered) read the freshly received ghosts.
		w += s.updateETiled(0, 1, 0, nyl)
		w += s.updateETiled(1, nxl, 0, 1)
	} else {
		c.SendUpTo(grid.AxisX, s.xUp, s.xDown, s.eX...)
		if s.exchangeY {
			c.SendUpTo(grid.AxisY, s.yUp, s.yDown, s.eY...)
		}
		if s.mur != nil {
			s.mur.snapshot(f.Ey, f.Ez, f.Ex)
		}
		w = s.updateETiled(0, nxl, 0, nyl)
	}
	c.Work(float64(w))
	s.work += float64(w)

	addSource(f.Ez, s.spec, n, f.XR, f.YR)
	if s.mur != nil {
		mw := s.mur.apply(f.Ey, f.Ez, f.Ex)
		c.Work(float64(mw))
		s.work += float64(mw)
	}

	// H half-step.  The H update reads Ey, Ez one plane above along x
	// (and Ex, Ez one plane above along y in 2-D).
	if s.overlap {
		c.StartSendDownTo(grid.AxisX, s.xDown, s.hX...)
		if s.exchangeY {
			c.StartSendDownTo(grid.AxisY, s.yDown, s.hY...)
		}
		w = s.updateHTiled(0, nxl-1, 0, nyl-1)
		c.FinishSendDownTo(grid.AxisX, s.xUp, s.hX...)
		if s.exchangeY {
			c.FinishSendDownTo(grid.AxisY, s.yUp, s.hY...)
		}
		w += s.updateHTiled(nxl-1, nxl, 0, nyl)
		w += s.updateHTiled(0, nxl-1, nyl-1, nyl)
	} else {
		c.SendDownTo(grid.AxisX, s.xDown, s.xUp, s.hX...)
		if s.exchangeY {
			c.SendDownTo(grid.AxisY, s.yDown, s.yUp, s.hY...)
		}
		w = s.updateHTiled(0, nxl, 0, nyl)
	}
	c.Work(float64(w))
	s.work += float64(w)

	if s.probeOwner {
		s.probe = append(s.probe, f.Ez.At(s.probeI, s.probeJ, s.probeK))
	}
	if s.ff != nil {
		pts := s.ff.accumulate(n, f.Ex, f.Ey, f.Ez, f.Hx, f.Hy, f.Hz, f.XR, f.YR)
		c.Work(float64(pts))
		s.work += float64(pts)
	}
}
