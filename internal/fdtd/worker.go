package fdtd

import (
	"repro/internal/channel"
	"repro/internal/mesh"
)

// ValidateForP reports the first problem with running spec distributed
// over p processes: an invalid spec, too many processes for the grid,
// or a boundary treatment the edge slabs cannot support.  It is the
// admission-time check of the job service — the exact predicate the
// workers apply, so an admitted job cannot fail decomposition later.
func ValidateForP(spec Spec, p int) error {
	_, err := decompose(spec, p, 1)
	return err
}

// RunArchetypeWorker executes one rank of the archetype application in
// this process, with the other ranks reached through tr (typically
// channel.DialMesh in a -procs worker).  The returned Result carries
// the assembled global fields only on rank 0; every rank gets the
// probe series and reductions.  By Theorem 1 all of it is bitwise
// identical to the same rank's slice of a RunArchetype run.
func RunArchetypeWorker(spec Spec, rank int, tr channel.Transport[mesh.Msg], opt Options) (*Result, error) {
	topo, err := decompose(spec, tr.P(), 1)
	if err != nil {
		return nil, err
	}
	return mesh.RunWorker(rank, tr, opt.Mesh, func(c *mesh.Comm) *Result {
		return spmd(c, spec, topo, opt, nil, spec.Steps)
	})
}
