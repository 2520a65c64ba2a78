package core

import (
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/problem"
)

// instanceArrays lists every grid-sized array an instance holds: its four
// fields, the operator's face coefficients and the Jacobi preconditioner's
// inverse diagonal.
func instanceArrays(t *testing.T, inst *Instance) map[string]*grid.Field {
	t.Helper()
	m, ok := inst.opts.Precond.(*precond.Jacobi)
	if !ok {
		t.Fatalf("deck must select jac_diag, got %T", inst.opts.Precond)
	}
	arrays := map[string]*grid.Field{
		"density": inst.Density, "energy": inst.Energy, "u": inst.U, "u0": inst.u0,
		"kx": inst.Op.Kx, "ky": inst.Op.Ky, "invdiag": m.InvDiag(),
	}
	if inst.Op.Kz != nil {
		arrays["kz"] = inst.Op.Kz
	}
	return arrays
}

// A flat instance must allocate exactly what the 2D stack did —
// (nx+2h)·(ny+2h) values per field, no z-halo planes, no z-face
// coefficients — and a 3D instance exactly its seven padded boxes plus
// the Jacobi diagonal.
func TestFlatInstanceAllocatesNoZStorage(t *testing.T) {
	d := problem.BenchmarkDeck(12)
	d.YCells = 10
	d.Precond = "jac_diag"
	inst, err := NewSerial(d, par.Serial)
	if err != nil {
		t.Fatal(err)
	}
	h := HaloFor(d)
	plane := (12 + 2*h) * (10 + 2*h)
	arrays := instanceArrays(t, inst)
	if len(arrays) != 7 {
		t.Errorf("flat instance holds %d arrays, want 7 (no Kz)", len(arrays))
	}
	for name, f := range arrays {
		if len(f.Data) != plane {
			t.Errorf("flat %s holds %d values, want (nx+2h)(ny+2h) = %d", name, len(f.Data), plane)
		}
	}

	d3 := problem.BenchmarkDeck3D(6)
	d3.YCells, d3.ZCells = 5, 4
	inst3, err := NewSerial(d3, par.Serial)
	if err != nil {
		t.Fatal(err)
	}
	box := (6 + 2*h) * (5 + 2*h) * (4 + 2*h)
	arrays = instanceArrays(t, inst3)
	if len(arrays) != 8 {
		t.Errorf("3D instance holds %d arrays, want 8", len(arrays))
	}
	for name, f := range arrays {
		if len(f.Data) != box {
			t.Errorf("3D %s holds %d values, want (nx+2h)(ny+2h)(nz+2h) = %d", name, len(f.Data), box)
		}
	}

	// The dims = 3, z_cells = 1 deck is the flat case, storage included.
	d3.ZCells = 1
	flat3, err := NewSerial(d3, par.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if flat3.Op.Kz != nil || len(flat3.Energy.Data) != (6+2*h)*(5+2*h) {
		t.Errorf("a z_cells=1 deck must allocate flat storage: Kz %v, %d values", flat3.Op.Kz != nil, len(flat3.Energy.Data))
	}
}
