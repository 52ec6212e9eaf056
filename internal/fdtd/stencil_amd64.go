package fdtd

// haveAVX2 reports whether the CPU supports AVX2 and the OS saves the
// YMM registers across context switches.
var haveAVX2 = cpuHasAVX2()

// cpuHasAVX2 checks CPUID leaf 7 for AVX2 and, through CPUID leaf 1
// and XGETBV, that the OS has enabled the AVX register state.
func cpuHasAVX2() bool

// stencilAVX2 is stencil's loop over n >= 1 cells addressed by raw
// pointers; the caller has checked every operand's length.
//
//go:noescape
func stencilAVX2(o, c1, c2, p, q, r, s *float64, n int)
