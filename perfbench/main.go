// Command perfbench is the repository's benchmark.  It times the
// paper's two FDTD workloads (Table 1 and Figure 2) as repeated
// fdtd.RunArchetype solves and an open-loop job stream through a
// two-node cluster.Coordinator, checks every timed answer bitwise
// against a sequential oracle, and prints one JSON result line.
//
// Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with all tracing off;
// --trace 1 is a separate run that attaches the program's counters and
// times each layer, printing the per-layer metrics.  README.md lists
// every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the run-guard record printed with every result.
type runInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Ranks and Workers are the per-solve configuration the benchmark
	// chooses: processes per solve and tile workers per rank.
	Ranks   int `json:"ranks"`
	Workers int `json:"tile_workers"`
	// ServeTileWorkers is the tile width serve picks for its own jobs
	// (fdtd.DefaultOptions: one per CPU); serve.Config does not expose
	// it, so the service workload records it instead of choosing it.
	ServeTileWorkers int `json:"serve_tile_workers,omitempty"`
	Conns            int `json:"load_conns"`
}

func main() {
	workload := flag.String("workload", "", "workload: table1, figure2 or service")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	digests := flag.String("digests", "perfbench/digests.json", "stored oracle digests for the paper workloads")
	regen := flag.Bool("regen-digests", false, "recompute the paper workloads' oracle digests into -digests and exit")
	cold := flag.Bool("cold-solve", false, "make one solve of the paper --workload, print whether it matched its digest, and exit (a paper workload's set-up)")
	flag.Parse()

	if *regen {
		if err := regenDigests(*digests); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	run := time.Duration(*seconds) * time.Second

	info := runInfo{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Ranks: benchRanks, Workers: benchTileWorkers,
	}
	dig, err := loadDigests(*digests)
	if err != nil {
		fatal(err)
	}
	var w func() (*result, error)
	switch *workload {
	case "table1", "figure2":
		pw := paperWorkloads[*workload]
		d, ok := dig[*workload]
		if !ok {
			fatal(fmt.Errorf("%s has no digest for %s; run with -regen-digests", *digests, *workload))
		}
		if *cold {
			coldSolve(pw, d)
			return
		}
		if *trace == 0 {
			w = func() (*result, error) { return runPaper(*workload, pw, d, *digests, run) }
		} else {
			w = func() (*result, error) { return tracePaper(pw, d, dig["table1"].FarLen, run) }
		}
	case "service":
		info.Conns = loadConns()
		info.ServeTileWorkers = runtime.GOMAXPROCS(0)
		if *trace == 0 {
			w = func() (*result, error) { return runService(*seed, run, dig["table1"]) }
		} else {
			w = func() (*result, error) { return traceService(*seed, run, dig["table1"]) }
		}
	default:
		fatal(fmt.Errorf("unknown --workload %q (want table1, figure2 or service)", *workload))
	}
	// Run guard: a solve whose ranks times tile workers exceed the CPUs
	// measures oversubscription, not the program.
	if info.Ranks*info.Workers > info.NProc {
		fatal(fmt.Errorf("refusing to run: %d ranks x %d tile workers exceed nproc=%d",
			info.Ranks, info.Workers, info.NProc))
	}
	rec, _ := json.Marshal(info)
	fmt.Printf("perfbench run: %s\n", rec)

	res, err := w()
	if err != nil {
		fatal(err)
	}
	if *trace == 1 {
		res.Metrics["run.nproc"] = metric{float64(info.NProc), "count"}
		res.Metrics["run.gomaxprocs"] = metric{float64(info.GOMAXPROCS), "count"}
		res.Metrics["run.rank_workers"] = metric{float64(info.Ranks * info.Workers), "count"}
		res.Metrics["run.load_conns"] = metric{float64(info.Conns), "count"}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
