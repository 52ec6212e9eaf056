package mesh

import (
	"testing"

	"repro/internal/grid"
)

func TestScatterGather3DBlocksRoundTrip(t *testing.T) {
	const nx, ny, nz = 9, 8, 5
	global := grid.New3(nx, ny, nz, 0)
	global.FillFunc(func(i, j, k int) float64 { return float64(i*1000 + j*10 + k) })
	for _, tc := range []struct{ px, py, gx, gy int }{
		{1, 1, 1, 1}, {2, 2, 1, 1}, {3, 2, 1, 1}, {1, 4, 1, 1},
		// 1-D x slabs without ghosts; TestScatterGatherRoundTrip3D
		// covers the slab layout's x-only ghosts.
		{4, 1, 0, 0},
	} {
		topo := NewTopo2D(nx, ny, tc.px, tc.py)
		for _, combine := range []bool{true, false} {
			for _, mode := range bothModes {
				opt := DefaultOptions()
				opt.Combine = combine
				res, err := Run(topo.P(), mode, opt, func(c *Comm) *grid.G3 {
					var src *grid.G3
					if c.Rank() == 0 {
						src = global
					}
					local := c.Scatter3DBlocks(src, topo, nz, 0, tc.gx, tc.gy)
					// Check the local contents and ghost allocation.
					xr, yr := topo.Block(c.Rank())
					if local.GhostX() != tc.gx || local.GhostY() != tc.gy || local.GhostZ() != 0 {
						panic("scatter ghost widths wrong")
					}
					for i := 0; i < local.NX(); i++ {
						for j := 0; j < local.NY(); j++ {
							if local.At(i, j, nz-1) != global.At(xr.Lo+i, yr.Lo+j, nz-1) {
								panic("scatter delivered wrong block")
							}
						}
					}
					return c.Gather3DBlocks(local, topo, nz, 0)
				})
				if err != nil {
					t.Fatalf("%+v combine=%v %v: %v", tc, combine, mode, err)
				}
				if res[0] == nil || !res[0].Equal(global) {
					t.Fatalf("%+v combine=%v %v: gather(scatter(g)) != g", tc, combine, mode)
				}
				for r := 1; r < topo.P(); r++ {
					if res[r] != nil {
						t.Fatalf("%+v: non-root %d returned a grid", tc, r)
					}
				}
			}
		}
	}
}

func TestGather3DBlocksToNonZeroRoot(t *testing.T) {
	const root = 2
	// A 2x2 block grid and a 4x1 layout of x slabs.
	for _, topo := range []*Topo2D{NewTopo2D(6, 6, 2, 2), NewTopo2D(6, 6, 4, 1)} {
		res, err := Run(topo.P(), Sim, DefaultOptions(), func(c *Comm) *grid.G3 {
			xr, yr := topo.Block(c.Rank())
			local := grid.New3G(xr.Len(), yr.Len(), 3, 0, 0, 0)
			local.FillFunc(func(i, j, k int) float64 {
				return float64((xr.Lo+i)*100 + (yr.Lo+j)*10 + k)
			})
			return c.Gather3DBlocks(local, topo, 3, root)
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, g := range res {
			if (g != nil) != (r == root) {
				t.Fatalf("%dx%d: only root %d should hold the gathered grid", topo.PX, topo.PY, root)
			}
		}
		for i := 0; i < topo.NX; i++ {
			for j := 0; j < topo.NY; j++ {
				for k := 0; k < 3; k++ {
					if res[root].At(i, j, k) != float64(i*100+j*10+k) {
						t.Fatalf("%dx%d: gathered (%d,%d,%d) wrong", topo.PX, topo.PY, i, j, k)
					}
				}
			}
		}
	}
}

func TestBlocks3DPanics(t *testing.T) {
	topo := NewTopo2D(6, 6, 2, 2)
	_, err := Run(2, Sim, DefaultOptions(), func(c *Comm) bool {
		defer func() { recover() }()
		g := grid.New3(3, 3, 3, 0)
		c.Gather3DBlocks(g, topo, 3, 0) // run P != topo P
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(4, Sim, DefaultOptions(), func(c *Comm) bool {
		defer func() { recover() }()
		c.Scatter3DBlocks(nil, topo, 3, c.Rank(), 0, 0) // nil global on root
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommOptionsAccessor(t *testing.T) {
	opt := DefaultOptions()
	opt.Combine = false
	res, err := Run(1, Sim, opt, func(c *Comm) bool {
		return c.Options().Combine
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] {
		t.Fatal("Options() should reflect the run options")
	}
}
