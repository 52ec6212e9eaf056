package fdtd

import (
	"math"
	"math/rand"
	"testing"
)

const noAVX2 = "no AVX2 on this CPU (or the OS does not save YMM state); only the Go path can run"

// forEachStencilPath runs fn once with stencil forced to the Go loop
// and once forced to the AVX2 assembly, restoring the CPU's choice
// afterwards.  The AVX2 run skips on a CPU (or OS) without AVX2.
func forEachStencilPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(path.name, func(t *testing.T) {
			if path.avx2 && !haveAVX2 {
				t.Skip(noAVX2)
			}
			defer func(saved bool) { useAVX2 = saved }(useAVX2)
			useAVX2 = path.avx2
			fn(t)
		})
	}
}

// stencilValue draws an operand: mostly moderate random values, with
// the IEEE edge cases mixed in — signed zeros, subnormals, infinities
// and magnitudes near overflow (whose products and sums overflow or
// produce NaN inside the stencil).
func stencilValue(rng *rand.Rand) float64 {
	specials := [...]float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		0x1p-1022, -0x1p-1022,
		math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300,
	}
	if rng.Intn(4) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return (rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(40)-20)
}

// TestStencilMatchesScalar pits the AVX2 assembly against the Go loop
// bit for bit: every length 0..70 (so every n%4 tail), operands at odd
// start offsets, the overlapping one-shifted views the kernels pass
// (hy[1:] beside hy[:n-1]), and IEEE edge values.  Sentinel cells
// around the written row catch any store outside it.
func TestStencilMatchesScalar(t *testing.T) {
	if !haveAVX2 {
		t.Skip(noAVX2)
	}
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	rng := rand.New(rand.NewSource(11))
	const guard = 5
	sentinel := math.Float64frombits(0x7ff4dead0000beef)
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = stencilValue(rng)
		}
		return x
	}
	for n := 0; n <= 70; n++ {
		for _, off := range []int{0, 1, 3} {
			for _, shifted := range []bool{false, true} {
				c1 := fill(off + n)[off:]
				c2 := fill(off + n)[off:]
				var p, q, r, s []float64
				if shifted {
					// Ex's shape: hz against a neighbour row, then
					// hy[k] - hy[k-1] as two views of one row.
					p, q = fill(off + n)[off:], fill(off + n)[off:]
					hy := fill(off + n + 1)[off:]
					r, s = hy[1:], hy[:n]
				} else {
					p, q, r, s = fill(off + n)[off:], fill(off + n)[off:], fill(off + n)[off:], fill(off + n)[off:]
				}
				init := fill(n)
				run := func(avx2 bool) []float64 {
					buf := make([]float64, guard+off+n+guard)
					for i := range buf {
						buf[i] = sentinel
					}
					o := buf[guard+off : guard+off+n]
					copy(o, init)
					useAVX2 = avx2
					stencil(o, c1, c2, p, q, r, s)
					for i, v := range buf {
						if (i < guard+off || i >= guard+off+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
							t.Fatalf("n=%d off=%d shifted=%v avx2=%v: wrote outside o at buffer index %d", n, off, shifted, avx2, i)
						}
					}
					return o
				}
				want, got := run(false), run(true)
				for k := range want {
					if math.Float64bits(want[k]) != math.Float64bits(got[k]) {
						t.Fatalf("n=%d off=%d shifted=%v k=%d: avx2 %v (%#x), go %v (%#x)", n, off, shifted, k,
							got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
					}
				}
			}
		}
	}
}

// TestStencilPanicsOnShortOperand checks stencil's only guard on the
// assembly path: an operand shorter than o (capacity-clamped, like a
// grid row view) must panic on both paths instead of reading past its
// end.
func TestStencilPanicsOnShortOperand(t *testing.T) {
	forEachStencilPath(t, func(t *testing.T) {
		for _, n := range []int{1, 4, 9} {
			for bad := 0; bad < 6; bad++ {
				ops := make([][]float64, 6)
				for i := range ops {
					ops[i] = make([]float64, n)
				}
				ops[bad] = make([]float64, n-1)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("n=%d: operand %d of length %d did not panic", n, bad+1, n-1)
						}
					}()
					stencil(make([]float64, n), ops[0], ops[1], ops[2], ops[3], ops[4], ops[5])
				}()
			}
		}
	})
}
