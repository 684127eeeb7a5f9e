package grid

import "testing"

// TestGetMatReturnsConsistentShape is the basic pool round-trip: a
// recycled matrix must come back with the requested shape and a
// backing slice that matches it.
func TestGetMatReturnsConsistentShape(t *testing.T) {
	m := GetMat(8, 4)
	if m.H != 8 || m.W != 4 || len(m.Data) != 32 {
		t.Fatalf("GetMat(8,4) = %dx%d with %d data", m.H, m.W, len(m.Data))
	}
	PutMat(m)
	n := GetMat(4, 8) // same bucket (32), different shape
	if n.H != 4 || n.W != 8 || len(n.Data) != 32 {
		t.Fatalf("GetMat(4,8) = %dx%d with %d data", n.H, n.W, len(n.Data))
	}
}

// TestPutMatRejectsAliasedView is the regression test for the pool
// poisoning bug: a matrix whose Data slice disagrees with its H×W
// shape (e.g. a hand-built view over a larger or smaller buffer) must
// never enter a pool bucket, because GetMat would later hand out its
// short/aliased slice under a clean shape.
func TestPutMatRejectsAliasedView(t *testing.T) {
	// Undersized backing: 2x2 header over 3 elements.
	PutMat(&Mat{H: 2, W: 2, Data: make([]float64, 3)})
	// Oversized backing: 2x2 header over a 16-element buffer.
	PutMat(&Mat{H: 2, W: 2, Data: make([]float64, 16)})
	for i := 0; i < 8; i++ {
		m := GetMat(2, 2)
		if len(m.Data) != 4 {
			t.Fatalf("pool handed out a poisoned matrix: %dx%d with %d data", m.H, m.W, len(m.Data))
		}
	}
	// nil stays a no-op.
	PutMat(nil)
	PutCMat(nil)
}

// TestPutCMatRejectsAliasedView mirrors the Mat regression for CMat.
func TestPutCMatRejectsAliasedView(t *testing.T) {
	PutCMat(&CMat{H: 2, W: 2, Data: make([]complex128, 3)})
	PutCMat(&CMat{H: 2, W: 2, Data: make([]complex128, 16)})
	for i := 0; i < 8; i++ {
		m := GetCMat(2, 2)
		if len(m.Data) != 4 {
			t.Fatalf("pool handed out a poisoned cmatrix: %dx%d with %d data", m.H, m.W, len(m.Data))
		}
	}
}

// TestBatchHelpers covers the burst Put forms: nil tolerance and slice
// clearing.
func TestBatchHelpers(t *testing.T) {
	ms := []*Mat{GetMat(4, 8), GetMat(4, 8), nil, GetMat(4, 8)} // partially-consumed batch
	PutMats(ms)
	for i, m := range ms {
		if m != nil {
			t.Fatalf("PutMats left entry %d set", i)
		}
	}
	cs := []*CMat{nil, GetCMat(2, 2), GetCMat(2, 2)}
	PutCMats(cs)
	for i, m := range cs {
		if m != nil {
			t.Fatalf("PutCMats left entry %d set", i)
		}
	}
}
