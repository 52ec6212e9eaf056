package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice).  xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevel is the percentile the service's job_p99_s reports for n
// samples: the 99th when at least 25 samples lie beyond it, otherwise
// the highest that has 25 beyond it, but never below the median.  A
// percentile with fewer samples beyond it did not repeat from run to
// run.
func tailLevel(n int) float64 {
	return math.Max(0.5, math.Min(0.99, 1-25/float64(n)))
}

// The paper workloads' job_p99_s is a windowed tail: the timed solves
// are cut, in the order they ran, into windows of tailWindow solves,
// and it is the median over the windows of each window's
// tailWindowLevel quantile.  CPU taken by other tenants of a shared
// host comes in bursts of a few seconds; a burst slows the solves of
// the few windows it covers and moves the median window little, where
// it moved a whole-run 95th percentile by up to a quarter from one run
// to the next.
const (
	tailWindow      = 25
	tailWindowLevel = 0.90
	// minTailWindows is the fewest windows that make a median; a run
	// with fewer reports the median solve time instead.
	minTailWindows = 3
)

// windowedTail returns the median over consecutive windows of
// tailWindow samples of each window's tailWindowLevel quantile,
// dropping a trailing partial window, or the median of all samples if
// they fill fewer than minTailWindows windows.  xs is in the order the
// samples were taken and is not modified.
func windowedTail(xs []float64) float64 {
	n := len(xs) / tailWindow
	if n < minTailWindows {
		return median(xs)
	}
	tails := make([]float64, n)
	for i := range tails {
		tails[i] = quantile(xs[i*tailWindow:(i+1)*tailWindow], tailWindowLevel)
	}
	return median(tails)
}

// secs converts durations to float seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB returns the process's resident-set high-water mark in MiB
// (VmHWM), falling back to the Go runtime's total OS reservation where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// tally counts the answers a run checked against the oracle.
type tally struct {
	attempted int
	failed    int // errored, refused, or not bitwise equal to the oracle
}

// record counts one answer: err is a failure to answer, ok whether
// an answer matched the oracle.
func (t *tally) record(err error, ok bool) {
	t.attempted++
	if err != nil || !ok {
		t.failed++
	}
}

// errorRatio is the share of attempted answers that failed or were
// wrong.
func (t *tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// result assembles the output line from the tally and the metrics.  A
// run is correct only if every answer was given and matched: the load
// is far below capacity, so a refused or failed job is a defect too.
func (t *tally) result(m map[string]metric) (*result, error) {
	if t.attempted == 0 {
		return nil, fmt.Errorf("no answers were attempted")
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}
