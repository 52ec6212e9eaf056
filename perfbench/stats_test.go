package main

import "testing"

// TestWindowedTail checks that a burst of slow samples confined to a
// minority of windows leaves the windowed tail at the steady windows'
// value, and that too few windows fall back to the median.
func TestWindowedTail(t *testing.T) {
	var xs []float64
	for w := 0; w < 10; w++ {
		for i := 0; i < tailWindow; i++ {
			v := 1.0
			if i%10 == 9 {
				v = 2 // each window's slowest tenth
			}
			if w == 3 || w == 4 {
				v *= 5 // a burst covering two windows
			}
			xs = append(xs, v)
		}
	}
	want := quantile(xs[:tailWindow], tailWindowLevel)
	if got := windowedTail(xs); got != want {
		t.Fatalf("windowedTail = %v, want the steady windows' %v", got, want)
	}
	short := xs[:minTailWindows*tailWindow-1]
	if got, want := windowedTail(short), median(short); got != want {
		t.Fatalf("windowedTail of %d samples = %v, want their median %v", len(short), got, want)
	}
}
