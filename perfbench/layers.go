package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/channel"
	"repro/internal/fdtd"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
)

// nearMatches checks only the near field against the digest: runs
// whose far field legitimately differs (another P, or none at all)
// must still reproduce the sequential program's fields and probe.
func nearMatches(res *fdtd.Result, d digest) bool {
	return res != nil && serve.ResultFieldHash(res) == d.FieldHash && bitsHash(res.Probe) == d.ProbeHash
}

// tracedSolve is what one traced solve reports.
type tracedSolve struct {
	wall   time.Duration
	phases [obs.NumPhases]time.Duration // of the rank with the most accounted time
	msgs   int64
	bytes  int64
	blocks int64
	events *machine.EventLog
	work   float64
}

// runTraced solves once with the program's counters attached: the obs
// collector, per-channel statistics and the machine event log.
func runTraced(spec fdtd.Spec, d digest, t *tally) tracedSolve {
	opt := paperOptions()
	col := obs.New(benchRanks)
	stats := channel.NewNetStats(benchRanks)
	events := machine.NewEventLog(benchRanks)
	opt.Mesh.Obs, opt.Mesh.ChanStats, opt.Mesh.Events = col, stats, events
	t0 := time.Now()
	res, err := fdtd.RunArchetype(spec, benchRanks, mesh.Par, opt)
	wall := time.Since(t0)
	col.Finish()
	t.record(err, err == nil && matchesDigest(res, d))
	ts := tracedSolve{wall: wall, msgs: stats.TotalMessages(), events: events}
	if res != nil {
		ts.work = res.Work
	}
	var best time.Duration
	for _, r := range col.Snapshot().Ranks {
		ts.bytes += r.BytesSent
		ts.blocks += r.Blocks
		if b := r.Busy(); b > best {
			best, ts.phases = b, r.Phase
		}
	}
	return ts
}

// solveLayers measures every solve-path layer on spec: alternating
// untraced and traced solves for the run's duration, then the far-field
// share, the two sequential baselines, the kernel against the memory
// roofline, transport alpha and beta, the halo loop, the reduction, and
// the machine model's replay of the traced event log.
func solveLayers(spec fdtd.Spec, d digest, farLen int, run time.Duration, t *tally) (map[string]metric, error) {
	opt := paperOptions()
	timedSolve(spec, opt, d, t) // warm-up

	var plain, traced []time.Duration
	var solves []tracedSolve
	start := time.Now()
	for time.Since(start) < run || len(solves) < 3 {
		dt, _ := timedSolve(spec, opt, d, t)
		plain = append(plain, dt)
		ts := runTraced(spec, d, t)
		traced = append(traced, ts.wall)
		solves = append(solves, ts)
	}
	solveS := median(secs(plain))
	steps := float64(spec.Steps)

	perSolve := func(f func(ts tracedSolve) float64) float64 {
		xs := make([]float64, len(solves))
		for i, ts := range solves {
			xs[i] = f(ts)
		}
		return median(xs)
	}
	phase := func(ph obs.Phase) float64 {
		return perSolve(func(ts tracedSolve) float64 { return ts.phases[ph].Seconds() })
	}
	unexplained := perSolve(func(ts tracedSolve) float64 {
		var sum time.Duration
		for _, ph := range []obs.Phase{obs.PhaseCompute, obs.PhaseExchange, obs.PhaseCollective, obs.PhaseIO} {
			sum += ts.phases[ph]
		}
		return 1 - sum.Seconds()/ts.wall.Seconds()
	})

	// Far field: the same spec without it, interleaved with solves of
	// the spec itself; the near field must not change.
	farfield := 0.0
	if spec.IsVersionC() {
		nf := spec
		nf.FarField = nil
		var with, without []float64
		for i := 0; i < 3; i++ {
			dt, _ := timedSolve(spec, opt, d, t)
			with = append(with, dt.Seconds())
			t0 := time.Now()
			res, err := fdtd.RunArchetype(nf, benchRanks, mesh.Par, opt)
			without = append(without, time.Since(t0).Seconds())
			t.record(err, err == nil && nearMatches(res, d))
		}
		farfield = median(with) - median(without)
	}

	// The two labelled speedup baselines: the same pencil kernel on one
	// simulated-parallel process, and the paper's original program.
	t0 := time.Now()
	res, err := fdtd.RunArchetype(spec, 1, mesh.Sim, opt)
	fastSeq := time.Since(t0).Seconds()
	t.record(err, err == nil && nearMatches(res, d))
	t0 = time.Now()
	res, err = fdtd.RunSequential(spec)
	paperSeq := time.Since(t0).Seconds()
	t.record(err, err == nil && nearMatches(res, d))

	kernel := fdtd.MeasureKernelRate(spec, fdtd.KernelPencil, 1, 300*time.Millisecond)
	// 8M-element arrays (192 MB) overflow the last-level cache, as the
	// repository's roofline report does.
	stream := machine.StreamTriad(8<<20, 3)
	debug.FreeOSMemory()

	inproc, err := transportCost(nil)
	if err != nil {
		return nil, err
	}
	sock, err := channel.NewLoopbackMesh[mesh.Msg](benchRanks, "unix", mesh.WireCodec(), channel.SocketOptions{})
	if err != nil {
		return nil, fmt.Errorf("socket mesh: %w", err)
	}
	socket, err := transportCost(sock)
	sock.Close()
	if err != nil {
		return nil, err
	}
	halo, err := haloRate(spec, run/10)
	if err != nil {
		return nil, err
	}
	allreduce, err := allReduceTime(farLen, 2000)
	if err != nil {
		return nil, err
	}

	// Machine model of this host: per-work-unit cost from the measured
	// kernel rate, message costs from the in-process transport.  Work
	// units per cell-step come from the solve's own work count.
	last := solves[len(solves)-1]
	workPerCellStep := last.work / (float64(spec.Cells()) * steps)
	model := machine.Model{
		Name:       "this host",
		SecPerWork: 1 / (kernel.CellsPerSec * workPerCellStep),
		Latency:    inproc.alpha,
		SecPerByte: inproc.beta,
	}
	_, predicted, err := model.DES(last.events)
	if err != nil {
		return nil, fmt.Errorf("model replay: %w", err)
	}

	return map[string]metric{
		"fdtd.kernel_mcells_per_s":      {kernel.CellsPerSec / 1e6, "Mcells/s"},
		"fdtd.kernel_roofline_frac":     {kernel.CellsPerSec * fdtd.KernelBytesPerCell / stream.BytesPerSec, "ratio"},
		"fdtd.bytes_per_cell_step":      {fdtd.KernelBytesPerCell, "B"},
		"fdtd.compute_s":                {phase(obs.PhaseCompute), "s"},
		"fdtd.farfield_s":               {farfield, "s"},
		"fdtd.speedup_fastest_seq":      {fastSeq / solveS, "x"},
		"fdtd.speedup_paper_seq":        {paperSeq / solveS, "x"},
		"fdtd.unexplained_frac":         {unexplained, "ratio"},
		"mesh.exchange_s":               {phase(obs.PhaseExchange), "s"},
		"mesh.collective_s":             {phase(obs.PhaseCollective), "s"},
		"mesh.io_s":                     {phase(obs.PhaseIO), "s"},
		"mesh.msgs_per_step":            {float64(last.msgs) / steps, "count"},
		"mesh.bytes_per_step":           {float64(last.bytes) / steps, "B"},
		"mesh.halo_gbps":                {halo / 1e9, "GB/s"},
		"mesh.allreduce_us":             {allreduce * 1e6, "us"},
		"channel.inproc_alpha_us":       {inproc.alpha * 1e6, "us"},
		"channel.inproc_beta_ns_per_kb": {inproc.beta * 1e9 * 1024, "ns/KB"},
		"channel.socket_alpha_us":       {socket.alpha * 1e6, "us"},
		"channel.socket_beta_ns_per_kb": {socket.beta * 1e9 * 1024, "ns/KB"},
		"sched.blocks_per_step":         {float64(last.blocks) / steps, "count"},
		"machine.model_residual_frac":   {predicted/solveS - 1, "ratio"},
		"obs.overhead_frac":             {median(secs(traced))/solveS - 1, "ratio"},
	}, nil
}

// linkCost is a transport's LogGP-style cost: alpha seconds per
// message plus beta seconds per payload byte, one way.
type linkCost struct{ alpha, beta float64 }

// transportCost ping-pongs between two mesh.Par ranks at two message
// sizes — one float64 and 64 KiB — and fits alpha and beta to the
// one-way times.  tr nil uses the in-process channels; the scheduler
// handoff is part of the cost either way.
func transportCost(tr channel.Transport[mesh.Msg]) (linkCost, error) {
	const small, large = 1, 8192
	oneWay := func(floats, rounds int) (float64, error) {
		var trials []float64
		for k := 0; k < 3; k++ {
			d, err := pingPong(tr, floats, rounds)
			if err != nil {
				return 0, err
			}
			trials = append(trials, d)
		}
		return median(trials), nil
	}
	a, err := oneWay(small, 2000)
	if err != nil {
		return linkCost{}, err
	}
	b, err := oneWay(large, 500)
	if err != nil {
		return linkCost{}, err
	}
	beta := (b - a) / float64(8*(large-small))
	return linkCost{alpha: a, beta: beta}, nil
}

// pingPong returns the mean one-way time of rounds round trips of a
// floats-long message between ranks 0 and 1.  A broadcast on two ranks
// is a single message, so alternating roots is a ping-pong through the
// archetype's public collective.
func pingPong(tr channel.Transport[mesh.Msg], floats, rounds int) (float64, error) {
	opt := mesh.DefaultOptions()
	opt.Workers = benchTileWorkers
	opt.Transport = tr
	elapsed := make([]time.Duration, benchRanks)
	_, err := mesh.Run(benchRanks, mesh.Par, opt, func(c *mesh.Comm) int {
		v := make([]float64, floats)
		for i := 0; i < 10; i++ {
			c.BroadcastVec(v, 0)
			c.BroadcastVec(v, 1)
		}
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			c.BroadcastVec(v, 0)
			c.BroadcastVec(v, 1)
		}
		elapsed[c.Rank()] = time.Since(t0)
		return 0
	})
	if err != nil {
		return 0, fmt.Errorf("ping-pong: %w", err)
	}
	return elapsed[0].Seconds() / float64(2*rounds), nil
}

// haloRate runs the solve's exchange pattern alone on the spec's slab
// shape under mesh.Sim at P=2: per step, two field planes up and two
// down, as the E and H half-steps send them.  Under Sim no rank ever
// waits on a running peer, so the rate is the cost of packing, moving
// and unpacking the ghost planes.  It returns payload bytes per second.
func haloRate(spec fdtd.Spec, minTime time.Duration) (float64, error) {
	slabs := grid.SlabDecompose3(spec.NX, spec.NY, spec.NZ, benchRanks, grid.AxisX)
	opt := mesh.DefaultOptions()
	opt.Workers = benchTileWorkers
	var rounds int
	var elapsed time.Duration
	_, err := mesh.Run(benchRanks, mesh.Sim, opt, func(c *mesh.Comm) int {
		sl := slabs[c.Rank()]
		fs := []*grid.G3{sl.NewLocal3(1), sl.NewLocal3(1), sl.NewLocal3(1), sl.NewLocal3(1)}
		c.SendUpX(fs[0], fs[1])
		c.SendDownX(fs[2], fs[3])
		t0 := time.Now()
		n := 0
		// Rank 0 decides when to stop and broadcasts the decision, so
		// both ranks run the same number of rounds.
		for {
			for i := 0; i < 16; i++ {
				c.SendUpX(fs[0], fs[1])
				c.SendDownX(fs[2], fs[3])
			}
			n += 16
			stop := 0.0
			if c.Rank() == 0 && time.Since(t0) >= minTime {
				stop = 1
			}
			if c.Broadcast(stop, 0) != 0 {
				break
			}
		}
		if c.Rank() == 0 {
			rounds, elapsed = n, time.Since(t0)
		}
		return 0
	})
	if err != nil {
		return 0, fmt.Errorf("halo loop: %w", err)
	}
	// Each round moves one two-plane message up and one down.
	plane := float64(spec.NY * spec.NZ * 8)
	return float64(rounds) * 4 * plane / elapsed.Seconds(), nil
}

// allReduceTime returns the mean time of one AllReduceVec of n float64
// on mesh.Par at P=2.
func allReduceTime(n, rounds int) (float64, error) {
	opt := mesh.DefaultOptions()
	opt.Workers = benchTileWorkers
	elapsed := make([]time.Duration, benchRanks)
	_, err := mesh.Run(benchRanks, mesh.Par, opt, func(c *mesh.Comm) int {
		v := make([]float64, n)
		for i := 0; i < 10; i++ {
			c.AllReduceVec(v, mesh.OpSum)
		}
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			c.AllReduceVec(v, mesh.OpSum)
		}
		elapsed[c.Rank()] = time.Since(t0)
		return 0
	})
	if err != nil {
		return 0, fmt.Errorf("allreduce: %w", err)
	}
	return elapsed[0].Seconds() / float64(rounds), nil
}
