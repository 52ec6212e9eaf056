package fdtd

// stencil performs one Yee pencil update,
//
//	o[k] = c1[k]*o[k] + c2[k]*((p[k]-q[k])-(r[k]-s[k]))
//
// for every k in [0, len(o)).  All six field components have this
// shape; they differ only in which row views they pass, including the
// one-shifted views of the z stencils (hy[1:] beside hy[:n-1]).  The
// operands are read-only and must not partially overlap o.
//
// Every operand is re-sliced to len(o) before use, so a short operand
// panics here, as the `b = b[:len(a)]` idiom always did (grid rows are
// capacity-clamped views, so re-slicing a short row past its end
// panics).  The vector path reads through raw pointers and skips Go's
// bounds checks, which makes this re-slice its only guard.
//
// On CPUs with AVX2 the update runs in assembly, four cells per
// instruction, with the multiply and the add kept as separate
// instructions (never fused into an FMA).  Each lane performs the
// scalar loop's IEEE operations in the same order, so the two paths
// produce bitwise-identical results and Theorem 1's identity with the
// sequential program is untouched.
func stencil(o, c1, c2, p, q, r, s []float64) {
	n := len(o)
	c1, c2, p, q, r, s = c1[:n], c2[:n], p[:n], q[:n], r[:n], s[:n]
	if useAVX2 {
		if n > 0 {
			stencilAVX2(&o[0], &c1[0], &c2[0], &p[0], &q[0], &r[0], &s[0], n)
		}
		return
	}
	for k := range o {
		o[k] = c1[k]*o[k] + c2[k]*((p[k]-q[k])-(r[k]-s[k]))
	}
}

// useAVX2 selects stencil's assembly path.  It is fixed at start-up
// from the CPU; tests flip it to drive both paths on one machine.
var useAVX2 = haveAVX2

// StencilPath names the stencil implementation this process runs:
// "avx2" or "go".
func StencilPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}
