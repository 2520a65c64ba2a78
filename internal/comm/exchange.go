package comm

import (
	"fmt"

	"tealeaf/internal/grid"
)

// slabTransport abstracts how one packed halo slab travels between a
// pair of ranks: over the Hub's buffered mailbox channels or over a TCP
// peer connection. Both Exchange implementations share the one phase
// core below, so the corner-correct ordering and its validation rules
// exist exactly once — the backends are bit-identical by construction,
// not by parallel maintenance. The side passed to both calls is the
// grid.Side of the RECEIVING rank at which the slab applies (the Hub's
// mailbox index). Implementations must make sendSlab non-blocking with
// respect to the peer's progress (buffered channel / writer queue):
// the core posts all of a phase's sends before draining its receives,
// and that is only deadlock-free if a send never waits for the peer to
// receive.
type slabTransport interface {
	sendSlab(to int, side grid.Side, msg []float64) error
	recvSlab(from int, side grid.Side, wantLen int) ([]float64, error)
}

// extentString formats a cell extent, in two dimensions when flat.
func extentString(flat bool, nx, ny, nz int) string {
	if flat {
		return fmt.Sprintf("%dx%d", nx, ny)
	}
	return fmt.Sprintf("%dx%dx%d", nx, ny, nz)
}

// flatness names a mesh's dimensionality in errors.
func flatness(flat bool) string {
	if flat {
		return "flat"
	}
	return "3D"
}

// checkFields validates the depth against the fields' halo and that every
// field shares the first one's grid shape.
func checkFields(depth int, fields []*grid.Field) error {
	g := fields[0].Grid
	if depth < 1 || depth > g.Halo {
		return fmt.Errorf("comm: exchange depth %d outside [1,%d]", depth, g.Halo)
	}
	for _, f := range fields {
		if f.Grid.NX != g.NX || f.Grid.NY != g.NY || f.Grid.NZ != g.NZ || f.Grid.Halo != g.Halo {
			return fmt.Errorf("comm: all fields in one exchange must share grid shape")
		}
	}
	return nil
}

// exchange is the backend-independent phased corner-correct halo
// exchange — exactly TeaLeaf's update_halo ordering: x-direction slabs
// over interior rows and planes, then y-direction slabs spanning the
// freshly filled x-halos, then (unless the mesh is flat) z-direction
// slabs spanning both, so edge and corner halo cells receive their
// diagonal neighbour's data without explicit diagonal messages. Physical
// sides are filled by zero-flux mirroring in the same phase order.
// Returns the message count and byte volume for the caller's trace.
func exchange(tr slabTransport, part *grid.Partition, rank int, depth int, fields []*grid.Field) (int, int64, error) {
	if err := checkFields(depth, fields); err != nil {
		return 0, 0, err
	}
	g := fields[0].Grid
	if g.Flat() != part.Flat() {
		return 0, 0, fmt.Errorf("comm: fields on a %s grid cannot be exchanged over a %s partition",
			flatness(g.Flat()), flatness(part.Flat()))
	}
	// A sub-domain thinner than the depth cannot supply its neighbour's
	// halo from interior cells: packing would send stale halo data.
	// Validate against the partition-wide minimum so every rank reaches
	// the same verdict (a per-rank check could leave peers deadlocked
	// mid-protocol).
	mnx, mny, mnz := part.MinExtent()
	if depth > mnx || depth > mny || (!part.Flat() && depth > mnz) {
		return 0, 0, fmt.Errorf("comm: exchange depth %d exceeds the smallest sub-domain extent %s",
			depth, extentString(part.Flat(), mnx, mny, mnz))
	}
	phys := part.Physical(rank)
	messages := 0
	var bytes int64
	send := func(to int, side grid.Side, msg []float64) error {
		if err := tr.sendSlab(to, side, msg); err != nil {
			return err
		}
		messages++
		bytes += int64(len(msg) * 8)
		return nil
	}
	// One phase per axis: the slab of cells [lo,hi) along the axis, over
	// the span of the other two axes that the earlier phases filled.
	phases := []struct {
		low     grid.Side
		n       int
		reflect grid.Sides
		slab    func(lo, hi int) grid.Bounds
		skip    bool
	}{
		{low: grid.Left, n: g.NX, reflect: grid.Sides{Left: phys.Left, Right: phys.Right},
			slab: func(lo, hi int) grid.Bounds { return grid.Bounds{X0: lo, X1: hi, Y0: 0, Y1: g.NY, Z0: 0, Z1: g.NZ} }},
		{low: grid.Down, n: g.NY, reflect: grid.Sides{Down: phys.Down, Up: phys.Up},
			slab: func(lo, hi int) grid.Bounds {
				return grid.Bounds{X0: -depth, X1: g.NX + depth, Y0: lo, Y1: hi, Z0: 0, Z1: g.NZ}
			}},
		{low: grid.Back, n: g.NZ, reflect: grid.Sides{Back: phys.Back, Front: phys.Front}, skip: part.Flat(),
			slab: func(lo, hi int) grid.Bounds {
				return grid.Bounds{X0: -depth, X1: g.NX + depth, Y0: -depth, Y1: g.NY + depth, Z0: lo, Z1: hi}
			}},
	}
	for _, ph := range phases {
		if ph.skip {
			continue
		}
		for _, f := range fields {
			f.ReflectHalosSides(depth, ph.reflect)
		}
		high := ph.low + 1
		lowRank := part.Neighbor(rank, ph.low)
		highRank := part.Neighbor(rank, high)
		// Send before receive: deadlock-free because sendSlab is buffered.
		if highRank >= 0 {
			if err := send(highRank, ph.low, pack(fields, ph.slab(ph.n-depth, ph.n))); err != nil {
				return messages, bytes, err
			}
		}
		if lowRank >= 0 {
			if err := send(lowRank, high, pack(fields, ph.slab(0, depth))); err != nil {
				return messages, bytes, err
			}
		}
		want := len(fields) * ph.slab(0, depth).Cells()
		if lowRank >= 0 {
			msg, err := tr.recvSlab(lowRank, ph.low, want)
			if err != nil {
				return messages, bytes, err
			}
			unpack(fields, msg, ph.slab(-depth, 0))
		}
		if highRank >= 0 {
			msg, err := tr.recvSlab(highRank, high, want)
			if err != nil {
				return messages, bytes, err
			}
			unpack(fields, msg, ph.slab(ph.n, ph.n+depth))
		}
	}
	return messages, bytes, nil
}

// pack packs box b of every field, x fastest, field after field.
func pack(fields []*grid.Field, b grid.Bounds) []float64 {
	msg := make([]float64, 0, len(fields)*b.Cells())
	for _, f := range fields {
		for k := b.Z0; k < b.Z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				msg = append(msg, f.Row(j, k, b.X0, b.X1)...)
			}
		}
	}
	return msg
}

// unpack is the inverse of pack.
func unpack(fields []*grid.Field, msg []float64, b grid.Bounds) {
	w := b.X1 - b.X0
	pos := 0
	for _, f := range fields {
		for k := b.Z0; k < b.Z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				copy(f.Row(j, k, b.X0, b.X1), msg[pos:pos+w])
				pos += w
			}
		}
	}
}

// asFields views 3D-named fields as the fields they are.
func asFields(fs []*grid.Field3D) []*grid.Field {
	out := make([]*grid.Field, len(fs))
	for i, f := range fs {
		out[i] = (*grid.Field)(f)
	}
	return out
}

// checkLocal validates a rank's local field against its extent.
func checkLocal(part *grid.Partition, rank int, local *grid.Field) error {
	ext := part.ExtentOf(rank)
	g := local.Grid
	if g.NX != ext.NX() || g.NY != ext.NY() || g.NZ != ext.NZ() {
		return fmt.Errorf("comm: local field %s does not match extent %s",
			extentString(part.Flat(), g.NX, g.NY, g.NZ), extentString(part.Flat(), ext.NX(), ext.NY(), ext.NZ()))
	}
	return nil
}

// checkDst validates rank 0's gather destination against the global mesh.
func checkDst(part *grid.Partition, dst *grid.Field) error {
	switch {
	case dst == nil:
		return fmt.Errorf("comm: rank 0 needs a destination field")
	case dst.Grid.NX != part.NX || dst.Grid.NY != part.NY || dst.Grid.NZ != part.NZ:
		return fmt.Errorf("comm: destination %s does not match global %s",
			extentString(part.Flat(), dst.Grid.NX, dst.Grid.NY, dst.Grid.NZ),
			extentString(part.Flat(), part.NX, part.NY, part.NZ))
	}
	return nil
}

// extentBox is the box of global cells a rank's extent covers.
func extentBox(e grid.Extent) grid.Bounds {
	return grid.Bounds{X0: e.X0, X1: e.X1, Y0: e.Y0, Y1: e.Y1, Z0: e.Z0, Z1: e.Z1}
}
