package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/fdtd"
	"repro/internal/mesh"
)

// The paper workloads' solve configuration: P=2 ranks of mesh.Par with
// one tile worker each, everything else at fdtd.DefaultOptions.
const (
	benchRanks       = 2
	benchTileWorkers = 1
	// A run sets up at least minSetups times and for at least
	// minSetupTime in all; setup_s is the median.
	minSetups    = 5
	minSetupTime = time.Second
	// minSolves keeps a short run from reporting a median of one solve.
	minSolves = 5
)

// paperWorkload is one of the paper's fixed-size experiments.
type paperWorkload struct {
	spec fdtd.Spec
	// sloLimit is the latency limit of slo_ok_ratio: a solve slower
	// than this, or wrong, misses it.  About four times the solve time
	// on a 2-CPU host.
	sloLimit time.Duration
}

var paperWorkloads = map[string]paperWorkload{
	"table1":  {spec: fdtd.SpecTable1(), sloLimit: 200 * time.Millisecond},
	"figure2": {spec: fdtd.SpecFigure2(), sloLimit: 4 * time.Second},
}

func paperOptions() fdtd.Options {
	opt := fdtd.DefaultOptions()
	opt.Mesh.Workers = benchTileWorkers
	return opt
}

// timedSolve runs one solve, times it, and checks it against the
// stored digest outside the timed region.
func timedSolve(spec fdtd.Spec, opt fdtd.Options, d digest, t *tally) (time.Duration, bool) {
	t0 := time.Now()
	res, err := fdtd.RunArchetype(spec, benchRanks, mesh.Par, opt)
	dt := time.Since(t0)
	ok := err == nil && matchesDigest(res, d)
	t.record(err, ok)
	return dt, ok
}

// coldSolve is the body of a set-up process: one solve of the
// workload, checked, with "match" or "differs" printed.
func coldSolve(pw paperWorkload, d digest) {
	var t tally
	timedSolve(pw.spec, paperOptions(), d, &t)
	if t.failed == 0 {
		fmt.Println("match")
	} else {
		fmt.Println("differs")
	}
}

// setUpCold is one set-up of a paper workload.  A library solve has no
// set-up beyond its first call in a process, so set-up is a fresh
// process of this benchmark that starts, makes one solve and exits;
// setUpCold times it from start to exit and counts its answer.
func setUpCold(workload, digests string, t *tally) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--cold-solve", "--workload", workload, "--digests", digests)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	dt := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	t.record(nil, strings.TrimSpace(string(out)) == "match")
	return dt, nil
}

// runPaper is the untraced run of a paper workload: set up several
// times, then solve repeatedly for the run's duration.
func runPaper(workload string, pw paperWorkload, d digest, digests string, run time.Duration) (*result, error) {
	var t tally
	opt := paperOptions()
	var setup []time.Duration
	for t0 := time.Now(); len(setup) < minSetups || time.Since(t0) < minSetupTime; {
		dt, err := setUpCold(workload, digests, &t)
		if err != nil {
			return nil, err
		}
		setup = append(setup, dt)
	}
	// One untimed warm-up solve, so the timed solves all run warm.
	timedSolve(pw.spec, opt, d, &t)
	var walls []time.Duration
	within := 0
	start := time.Now()
	for time.Since(start) < run || len(walls) < minSolves {
		dt, ok := timedSolve(pw.spec, opt, d, &t)
		walls = append(walls, dt)
		if ok && dt <= pw.sloLimit {
			within++
		}
	}
	w := secs(walls)
	tail := "their median"
	if n := len(w) / tailWindow; n >= minTailWindows {
		tail = fmt.Sprintf("the median over %d windows of %d solves of each window's p%.0f",
			n, tailWindow, 100*tailWindowLevel)
	}
	fmt.Printf("perfbench samples: %d timed solves (job_p99_s is %s), %d set-ups\n",
		len(walls), tail, len(setup))
	return t.result(map[string]metric{
		"solve_s":       {median(w), "s"},
		"job_p50_s":     {quantile(w, 0.50), "s"},
		"job_p99_s":     {windowedTail(w), "s"},
		"slo_ok_ratio":  {float64(within) / float64(len(walls)), "ratio"},
		"correct_ratio": {1 - t.errorRatio(), "ratio"},
		"setup_s":       {median(secs(setup)), "s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	})
}

// tracePaper is the traced run of a paper workload: the solve-path
// layers are measured on the workload's own spec, with the reduction
// timed at farLen, and the service layers, which the paper workloads
// bypass, report zero.
func tracePaper(pw paperWorkload, d digest, farLen int, run time.Duration) (*result, error) {
	var t tally
	m, err := solveLayers(pw.spec, d, farLen, run, &t)
	if err != nil {
		return nil, err
	}
	for name, unit := range serviceLayerUnits {
		m[name] = metric{0, unit}
	}
	m["oracle.error_ratio"] = metric{t.errorRatio(), "ratio"}
	return t.result(m)
}
