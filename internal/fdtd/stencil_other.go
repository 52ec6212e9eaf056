//go:build !amd64

package fdtd

const haveAVX2 = false

func stencilAVX2(o, c1, c2, p, q, r, s *float64, n int) {
	panic("fdtd: AVX2 stencil on a non-amd64 build")
}
