package sparse

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// csrHash is the FNV-1a 64 hash of a CSR's shape, rowPtr, colIdx and the bit
// patterns of vals — equal hashes mean the same matrix bit for bit.
func csrHash(m *CSR) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(m.rows))
	put(uint64(m.cols))
	for _, p := range m.rowPtr {
		put(uint64(p))
	}
	for _, c := range m.colIdx {
		put(uint64(c))
	}
	for _, v := range m.vals {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// TestSourceMatrixGolden pins the default build of every registered scheme to
// the matrix the reflection-sort COO.ToCSR produced at commit 507d941 (the
// parent of the counting-sort rewrite). A generator's matrix can only move
// where three or more triplets hit one position, because two addends commute.
func TestSourceMatrixGolden(t *testing.T) {
	// The mm: scheme has no default; it reads a file with duplicate entries
	// and a symmetric banner so both reader paths feed the COO.
	mmPath := filepath.Join(t.TempDir(), "a.mtx")
	mmText := "%%MatrixMarket matrix coordinate real symmetric\n4 4 7\n1 1 4\n2 2 4\n3 3 4\n4 4 4\n2 1 -1\n3 2 -0.5\n3 2 -0.5\n"
	if err := os.WriteFile(mmPath, []byte(mmText), 0o644); err != nil {
		t.Fatal(err)
	}
	golden := map[string]uint64{
		"grid":     0xd21de8c9b477c328,
		"mm":       0x1c647d1e025367ef,
		"poisson":  0x73f19dc12c8f691,
		"random":   0x8b1606841ad90799,
		"resistor": 0xb0a86c60dd3082a8,
		"saddle":   0xb0d3dd4b677e9147,
		"spanner":  0xb5b73e6040c6226,
		"tridiag":  0x953428ae87f95642,
	}
	for _, name := range RegisteredSources() {
		spec := name + ":"
		if name == "mm" {
			spec = MMSource{Path: mmPath, Hash: fnv64([]byte(mmText))}.String()
		}
		src, err := ParseSource(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		sys, _, err := src.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		want, ok := golden[name]
		if !ok {
			t.Errorf("scheme %q has no golden hash; record one", name)
			continue
		}
		if got := csrHash(sys.A); got != want {
			t.Errorf("%s: FNV-1a of the matrix = %#x, want %#x", name, got, want)
		}
	}
}

// sortReferenceToCSR is COO.ToCSR as it stood before the counting sort: one
// reflection sort.Slice over a copy of the triplets, then a run-length sum. It
// is kept as the oracle of the rewrite.
func sortReferenceToCSR(c *COO) *CSR {
	ts := make([]Triplet, len(c.entries))
	copy(ts, c.entries)
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].Row != ts[b].Row {
			return ts[a].Row < ts[b].Row
		}
		return ts[a].Col < ts[b].Col
	})
	rowPtr := make([]int, c.rows+1)
	colIdx := make([]int, 0, len(ts))
	vals := make([]float64, 0, len(ts))
	i := 0
	for i < len(ts) {
		r, col := ts[i].Row, ts[i].Col
		sum := 0.0
		for i < len(ts) && ts[i].Row == r && ts[i].Col == col {
			sum += ts[i].Val
			i++
		}
		if sum != 0 {
			colIdx = append(colIdx, col)
			vals = append(vals, sum)
			rowPtr[r+1]++
		}
	}
	for r := 0; r < c.rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return &CSR{rows: c.rows, cols: c.cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// checkCSRInvariants fails the test unless m is a well-formed CSR: monotone
// rowPtr ending at nnz, strictly ascending in-range columns per row, and no
// stored zero.
func checkCSRInvariants(t *testing.T, m *CSR) {
	t.Helper()
	if len(m.rowPtr) != m.rows+1 || m.rowPtr[0] != 0 || m.rowPtr[m.rows] != len(m.colIdx) || len(m.colIdx) != len(m.vals) {
		t.Fatalf("malformed CSR: rows=%d len(rowPtr)=%d rowPtr[last]=%d len(colIdx)=%d len(vals)=%d",
			m.rows, len(m.rowPtr), m.rowPtr[len(m.rowPtr)-1], len(m.colIdx), len(m.vals))
	}
	for r := 0; r < m.rows; r++ {
		if m.rowPtr[r] > m.rowPtr[r+1] {
			t.Fatalf("rowPtr decreases at row %d", r)
		}
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			if m.colIdx[k] < 0 || m.colIdx[k] >= m.cols {
				t.Fatalf("row %d column %d outside [0,%d)", r, m.colIdx[k], m.cols)
			}
			if k > m.rowPtr[r] && m.colIdx[k] <= m.colIdx[k-1] {
				t.Fatalf("row %d columns not strictly ascending: %v", r, m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]])
			}
			if m.vals[k] == 0 {
				t.Fatalf("row %d stores a zero at column %d", r, m.colIdx[k])
			}
		}
	}
}

// sameStructure reports whether two CSRs have the same shape and pattern.
func sameStructure(a, b *CSR) bool {
	if a.rows != b.rows || a.cols != b.cols || len(a.colIdx) != len(b.colIdx) {
		return false
	}
	for i := range a.rowPtr {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for i := range a.colIdx {
		if a.colIdx[i] != b.colIdx[i] {
			return false
		}
	}
	return true
}

// TestCOOToCSRMatchesSortReference compares the counting-sort ToCSR with the
// sort.Slice body it replaced on random triplets with duplicates, cancelling
// pairs, empty rows and rectangular shapes. With at most two triplets per
// position the two sums are the same two addends, so the matrices are equal
// bit for bit; with three or more only the order of the sum differs (insertion
// order here, whatever the unstable sort left there), so they agree to
// rounding and in pattern unless a sum cancels in one order only.
func TestCOOToCSRMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		maxDup := 1 + trial%3 // 1, 2 or 3 triplets per chosen position
		c := NewCOO(rows, cols)
		positions := rng.Intn(3 * rows)
		for p := 0; p < positions; p++ {
			// Skipping every third row leaves empty rows in the middle.
			i, j := rng.Intn(rows), rng.Intn(cols)
			if rows > 2 && i%3 == 1 {
				continue
			}
			switch rng.Intn(4) {
			case 0: // a cancelling pair: the position must not be stored
				v := rng.NormFloat64()
				c.Add(i, j, v)
				c.Add(i, j, -v)
			default:
				for d := 1 + rng.Intn(maxDup); d > 0; d-- {
					c.Add(i, j, rng.NormFloat64())
				}
			}
		}
		// A position chosen twice may exceed maxDup; count what was built.
		count := map[[2]int]int{}
		worst := 0
		for _, e := range c.entries {
			k := [2]int{e.Row, e.Col}
			count[k]++
			worst = max(worst, count[k])
		}
		got, want := c.ToCSR(), sortReferenceToCSR(c)
		checkCSRInvariants(t, got)
		if worst <= 2 {
			if !sameStructure(got, want) || !got.EqualApprox(want, 0) {
				t.Fatalf("trial %d (%dx%d, ≤2 per position): ToCSR differs from the sort reference\n got %v\nwant %v",
					trial, rows, cols, got, want)
			}
			continue
		}
		if !got.EqualApprox(want, 1e-12) {
			t.Fatalf("trial %d (%dx%d, %d per position): ToCSR differs from the sort reference beyond rounding", trial, rows, cols, worst)
		}
	}
}

// TestCOOToCSRSumsDuplicatesInInsertionOrder pins the defined order: the value
// stored at a position is the left-to-right sum of its triplets as added.
func TestCOOToCSRSumsDuplicatesInInsertionOrder(t *testing.T) {
	// (1e16 + 1) − 1e16 = 0 in that order (1e16 + 1 rounds to 1e16), while
	// (1e16 − 1e16) + 1 = 1: the result tells the order apart.
	c := NewCOO(2, 2)
	c.Add(1, 1, 1e16)
	c.Add(0, 0, 3)
	c.Add(1, 1, 1)
	c.Add(1, 1, -1e16)
	if got := c.ToCSR().At(1, 1); got != 0 {
		t.Errorf("1e16, 1, -1e16 summed to %g, want 0 (insertion order)", got)
	}
	c = NewCOO(2, 2)
	c.Add(1, 1, 1e16)
	c.Add(1, 1, -1e16)
	c.Add(1, 1, 1)
	if got := c.ToCSR().At(1, 1); got != 1 {
		t.Errorf("1e16, -1e16, 1 summed to %g, want 1 (insertion order)", got)
	}
}

// FuzzCOOToCSR turns bytes into at most 64 triplets on an 8×8 matrix (three
// bytes each: row, column, a small signed value so duplicates cancel often)
// and checks ToCSR against the sort reference and the CSR invariants. Small
// integer values sum exactly in any order, so the comparison is exact however
// many triplets share a position.
func FuzzCOOToCSR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{7, 7, 5, 7, 7, 251, 0, 3, 2})           // 5 + (−5) cancels at (7,7)
	f.Add([]byte{2, 1, 1, 2, 1, 2, 2, 1, 3, 2, 0, 4})    // three duplicates, then an earlier column
	f.Add([]byte{5, 5, 9, 4, 4, 9, 3, 3, 9, 0, 7, 1})    // descending rows
	f.Add([]byte{1, 6, 2, 1, 5, 2, 1, 4, 2, 1, 3, 2, 0}) // descending columns, trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCOO(8, 8)
		for k := 0; k+2 < len(data) && k < 3*64; k += 3 {
			c.Add(int(data[k]%8), int(data[k+1]%8), float64(int8(data[k+2])))
		}
		got, want := c.ToCSR(), sortReferenceToCSR(c)
		checkCSRInvariants(t, got)
		if !sameStructure(got, want) || !got.EqualApprox(want, 0) {
			t.Fatalf("ToCSR differs from the sort reference\n got %v\nwant %v", got, want)
		}
	})
}
