package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The set-up stages COO.ToCSR, RowBuilder, CSR.AddDiag, CSR.PermuteSym and
// CSR.IsSymmetric each write their output once, row by row. The functions
// below are the versions they replaced, kept as oracles: every output of the
// new code must equal theirs bit for bit.

// toCSRSortStable is COO.ToCSR before it compiled in place: a counting sort
// of the triplets into a separate array, then slices.SortStableFunc per row.
func toCSRSortStable(c *COO) *CSR {
	type entry struct {
		col int
		val float64
	}
	end := make([]int, c.rows+1)
	for _, t := range c.entries {
		end[t.Row+1]++
	}
	for r := 0; r < c.rows; r++ {
		end[r+1] += end[r]
	}
	byRow := make([]entry, len(c.entries))
	for _, t := range c.entries {
		byRow[end[t.Row]] = entry{t.Col, t.Val}
		end[t.Row]++
	}
	rowPtr := make([]int, c.rows+1)
	colIdx := make([]int, 0, len(byRow))
	vals := make([]float64, 0, len(byRow))
	begin := 0
	for r := 0; r < c.rows; r++ {
		row := byRow[begin:end[r]]
		begin = end[r]
		slices.SortStableFunc(row, func(a, b entry) int { return cmp.Compare(a.col, b.col) })
		for i := 0; i < len(row); {
			col, sum := row[i].col, 0.0
			for ; i < len(row) && row[i].col == col; i++ {
				sum += row[i].val
			}
			if sum != 0 {
				colIdx = append(colIdx, col)
				vals = append(vals, sum)
			}
		}
		rowPtr[r+1] = len(colIdx)
	}
	return &CSR{rows: c.rows, cols: c.cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// addDiagCOO is CSR.AddDiag as a COO round trip.
func addDiagCOO(m *CSR, d Vec) *CSR {
	coo := NewCOO(m.rows, m.cols)
	m.Each(func(i, j int, v float64) { coo.Add(i, j, v) })
	for i, v := range d {
		coo.Add(i, i, v)
	}
	return toCSRSortStable(coo)
}

// permuteSymTwoTranspose is CSR.PermuteSym as two counting transposes: the
// first builds Bᵀ with sorted rows by scanning B's rows in order, the second
// transposes it back the same way.
func permuteSymTwoTranspose(m *CSR, p []int) *CSR {
	n := m.rows
	inv := make([]int, n)
	for newIdx, oldIdx := range p {
		inv[oldIdx] = newIdx
	}
	nnz := len(m.vals)
	tPtr := make([]int, n+1)
	for _, c := range m.colIdx {
		tPtr[inv[c]+1]++
	}
	for i := 0; i < n; i++ {
		tPtr[i+1] += tPtr[i]
	}
	tCol, tVal := make([]int, nnz), make([]float64, nnz)
	tFill := slices.Clone(tPtr[:n])
	for i := 0; i < n; i++ {
		old := p[i]
		for q := m.rowPtr[old]; q < m.rowPtr[old+1]; q++ {
			r := inv[m.colIdx[q]]
			tCol[tFill[r]], tVal[tFill[r]] = i, m.vals[q]
			tFill[r]++
		}
	}
	bPtr := make([]int, n+1)
	for _, c := range tCol {
		bPtr[c+1]++
	}
	for i := 0; i < n; i++ {
		bPtr[i+1] += bPtr[i]
	}
	bCol, bVal := make([]int, nnz), make([]float64, nnz)
	bFill := slices.Clone(bPtr[:n])
	for i := 0; i < n; i++ {
		for q := tPtr[i]; q < tPtr[i+1]; q++ {
			r := tCol[q]
			bCol[bFill[r]], bVal[bFill[r]] = i, tVal[q]
			bFill[r]++
		}
	}
	return &CSR{rows: n, cols: n, rowPtr: bPtr, colIdx: bCol, vals: bVal}
}

// isSymmetricAt is CSR.IsSymmetric as a closure over every entry and an At
// binary search for its mirror. It differs from the rewrite only where a
// difference is NaN: it passes those, the rewrite fails them.
func isSymmetricAt(m *CSR, tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	sym := true
	m.Each(func(i, j int, v float64) {
		if sym && math.Abs(v-m.At(j, i)) > tol {
			sym = false
		}
	})
	return sym
}

// diffBits describes the first difference between two CSRs' shapes, rowPtr,
// colIdx and value bit patterns, or returns "" when they are the same bytes.
func diffBits(got, want *CSR) string {
	switch {
	case got.rows != want.rows || got.cols != want.cols:
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	case !slices.Equal(got.rowPtr, want.rowPtr):
		return fmt.Sprintf("rowPtr %v, want %v", got.rowPtr, want.rowPtr)
	case !slices.Equal(got.colIdx, want.colIdx):
		return fmt.Sprintf("colIdx %v, want %v", got.colIdx, want.colIdx)
	case len(got.vals) != len(want.vals):
		return fmt.Sprintf("%d values, want %d", len(got.vals), len(want.vals))
	}
	for k := range got.vals {
		if math.Float64bits(got.vals[k]) != math.Float64bits(want.vals[k]) {
			return fmt.Sprintf("value %d is %#x (%g), want %#x (%g)", k,
				math.Float64bits(got.vals[k]), got.vals[k], math.Float64bits(want.vals[k]), want.vals[k])
		}
	}
	return ""
}

// pick returns a value from the pool the property inputs draw on: ordinary
// values, ±0, small integers that cancel exactly, and a value at the bottom
// of the subnormal range.
func pick(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2, 3:
		return float64(rng.Intn(7) - 3)
	case 4:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(3)-1)
	default:
		return rng.NormFloat64()
	}
}

// randomRawCSR returns an n×n CSR assembled directly, so that it can store
// what no builder stores: explicit zeros and −0.0. Rows are sorted and free
// of repeats; some are empty, some miss their diagonal, and one in about
// twenty is longer than insertionMax so both sort paths of the stages run.
func randomRawCSR(rng *rand.Rand, n int) *CSR {
	rowPtr := make([]int, n+1)
	var colIdx []int
	var vals []float64
	for i := 0; i < n; i++ {
		k := rng.Intn(6)
		switch rng.Intn(20) {
		case 0:
			k = 0
		case 1:
			k = insertionMax + 1 + rng.Intn(insertionMax)
		}
		cols := rng.Perm(n)[:min(k, n)]
		if rng.Intn(3) == 0 {
			cols = append(cols, i) // a diagonal, unless the perm already had it
		}
		slices.Sort(cols)
		cols = slices.Compact(cols)
		for _, c := range cols {
			colIdx = append(colIdx, c)
			vals = append(vals, pick(rng))
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR{rows: n, cols: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// randomDiag returns a diagonal for m drawing on pick, with some entries set
// to cancel m's diagonal exactly.
func randomDiag(rng *rand.Rand, m *CSR) Vec {
	d := NewVec(m.rows)
	for i := range d {
		d[i] = pick(rng)
		if rng.Intn(6) == 0 {
			d[i] = -m.At(i, i)
		}
	}
	return d
}

// randomSymmetric returns a symmetric n×n matrix built through a COO, with
// a few of its off-diagonal pairs perturbed by about tol when perturb is set.
func randomSymmetric(rng *rand.Rand, n int, perturb float64) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, pick(rng))
		for k := rng.Intn(4); k > 0; k-- {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			c.Add(i, j, v)
			c.Add(j, i, v+perturb*float64(rng.Intn(3)-1))
		}
	}
	return c.ToCSR()
}

// withoutOneEntry returns a copy of m with one stored entry removed at
// random: in a symmetric m, its mirror is then the only entry without a
// partner, wherever the cursors of IsSymmetric meet it.
func withoutOneEntry(rng *rand.Rand, m *CSR) *CSR {
	if len(m.vals) == 0 {
		return m
	}
	k := rng.Intn(len(m.vals))
	out := &CSR{rows: m.rows, cols: m.cols, rowPtr: slices.Clone(m.rowPtr)}
	out.colIdx = slices.Delete(slices.Clone(m.colIdx), k, k+1)
	out.vals = slices.Delete(slices.Clone(m.vals), k, k+1)
	for r := range m.rows {
		if m.rowPtr[r+1] > k {
			out.rowPtr[r+1]--
		}
	}
	return out
}

// TestSetupStagesMatchOracles compares every rewritten stage with the
// version it replaced on random inputs: stored zeros and −0.0, missing
// diagonals, zero and cancelling d, empty rows and long rows, repeated
// positions summed in insertion order.
func TestSetupStagesMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(80)
		m := randomRawCSR(rng, n)
		d := randomDiag(rng, m)
		if diff := diffBits(m.AddDiag(d), addDiagCOO(m, d)); diff != "" {
			t.Fatalf("trial %d: AddDiag: %s", trial, diff)
		}
		p := rng.Perm(n)
		if diff := diffBits(m.PermuteSym(p), permuteSymTwoTranspose(m, p)); diff != "" {
			t.Fatalf("trial %d: PermuteSym: %s", trial, diff)
		}
		s := randomSymmetric(rng, n, 1e-9*float64(trial%2))
		for _, tol := range []float64{0, 1e-12, 1e-9, 2e-9} {
			for _, a := range []*CSR{m, s, withoutOneEntry(rng, s)} {
				if got, want := a.IsSymmetric(tol), isSymmetricAt(a, tol); got != want {
					t.Fatalf("trial %d: IsSymmetric(%g) = %v, the At-based check says %v\n%v", trial, tol, got, want, a)
				}
			}
		}

		// The same triplets through a COO and a RowBuilder, against the
		// sort-based ToCSR: repeated positions (three or more included) and
		// zero values, rows in random order.
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		coo := NewCOO(rows, cols)
		bound := make([]int, rows)
		var ts []Triplet
		for k := rng.Intn(4 * rows); k > 0; k-- {
			tr := Triplet{rng.Intn(rows), rng.Intn(cols), pick(rng)}
			for dup := 1 + rng.Intn(3); dup > 0; dup-- {
				ts = append(ts, tr)
				tr.Val = pick(rng)
			}
		}
		if rng.Intn(10) == 0 { // one long row
			for j := 0; j < 2*insertionMax; j++ {
				ts = append(ts, Triplet{0, rng.Intn(cols), pick(rng)})
			}
		}
		for _, tr := range ts {
			coo.Add(tr.Row, tr.Col, tr.Val)
			bound[tr.Row]++
		}
		b := NewRowBuilder(rows, cols, func(r int) int { return bound[r] + rng.Intn(2) })
		for _, tr := range ts {
			b.Add(tr.Row, tr.Col, tr.Val)
		}
		want := toCSRSortStable(coo)
		if diff := diffBits(coo.ToCSR(), want); diff != "" {
			t.Fatalf("trial %d: COO.ToCSR: %s", trial, diff)
		}
		if diff := diffBits(b.ToCSR(), want); diff != "" {
			t.Fatalf("trial %d: RowBuilder.ToCSR: %s", trial, diff)
		}
	}
}

// TestIsSymmetricRefusesNaN: a NaN anywhere makes a difference NaN, and
// !(NaN <= tol) fails the test where the At-based check passed it; so does
// an infinite diagonal (Inf − Inf).
func TestIsSymmetricRefusesNaN(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    [][]float64
	}{
		{"NaN diagonal", [][]float64{{math.NaN(), -1}, {-1, 2}}},
		{"NaN pair", [][]float64{{2, math.NaN()}, {math.NaN(), 2}}},
		{"Inf diagonal", [][]float64{{2, -1}, {-1, math.Inf(1)}}},
	} {
		c := NewCOO(2, 2) // NewCSRFromDense would drop a NaN: |NaN| > 0 is false
		for i, row := range tc.a {
			for j, v := range row {
				c.Add(i, j, v)
			}
		}
		m := c.ToCSR()
		if m.IsSymmetric(1) {
			t.Errorf("%s: IsSymmetric = true, want false", tc.name)
		}
		if !isSymmetricAt(m, 1) {
			t.Errorf("%s: the At-based check no longer passes it; this test's premise is stale", tc.name)
		}
	}
}

// TestRowBuilderBound: a row given more entries than its bound panics, and
// zero values take no slot.
func TestRowBuilderBound(t *testing.T) {
	b := NewRowBuilder(2, 2, func(r int) int { return r })
	b.Add(0, 1, 0)
	b.Add(1, 1, 3)
	if got := b.ToCSR(); got.NNZ() != 1 || got.At(1, 1) != 3 {
		t.Fatalf("built %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("an entry past the row bound did not panic")
		}
	}()
	b = NewRowBuilder(2, 2, func(r int) int { return 1 })
	b.Add(0, 0, 1)
	b.Add(0, 1, 1)
}

// FuzzSetupStages decodes bytes into an n×n matrix (stored zeros and −0.0
// included), a diagonal and a permutation, and checks AddDiag, PermuteSym,
// IsSymmetric and the ToCSR of the same triplets against their oracles.
// Byte 0 picks n ≤ 16; each following group of three bytes is a (row,
// column, value code) triplet, value codes mapping to small integers, ±0,
// halves and subnormals so repeated positions cancel and round.
func FuzzSetupStages(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 1, 1, 1, 2, 2, 2, 3, 0, 1, 9, 1, 0, 9})
	f.Add([]byte{4, 0, 0, 128, 0, 0, 129, 1, 1, 0, 3, 2, 255, 2, 3, 255, 2, 2, 7})
	f.Add([]byte{2, 1, 1, 5, 1, 1, 251, 1, 1, 5, 0, 1, 130, 1, 0, 131})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%16
		value := func(b byte) float64 {
			switch {
			case b == 128:
				return math.Copysign(0, -1)
			case b == 129:
				return math.SmallestNonzeroFloat64
			case b >= 250:
				return float64(int(b)-252) / 2
			default:
				return float64(int8(b))
			}
		}
		coo := NewCOO(n, n)
		var ts []Triplet
		for k := 1; k+2 < len(data) && k < 1+3*64; k += 3 {
			tr := Triplet{int(data[k]) % n, int(data[k+1]) % n, value(data[k+2])}
			ts = append(ts, tr)
			coo.Add(tr.Row, tr.Col, tr.Val)
		}
		a := coo.ToCSR()
		if diff := diffBits(a, toCSRSortStable(coo)); diff != "" {
			t.Fatalf("COO.ToCSR: %s", diff)
		}
		b := NewRowBuilder(n, n, func(int) int { return len(ts) })
		for _, tr := range ts {
			b.Add(tr.Row, tr.Col, tr.Val)
		}
		if diff := diffBits(b.ToCSR(), a); diff != "" {
			t.Fatalf("RowBuilder.ToCSR: %s", diff)
		}
		// The raw matrix keeps every triplet's last value, zeros included.
		last := map[[2]int]float64{}
		for _, tr := range ts {
			last[[2]int{tr.Row, tr.Col}] = tr.Val
		}
		raw := &CSR{rows: n, cols: n, rowPtr: make([]int, n+1)}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v, ok := last[[2]int{i, j}]; ok {
					raw.colIdx = append(raw.colIdx, j)
					raw.vals = append(raw.vals, v)
				}
			}
			raw.rowPtr[i+1] = len(raw.colIdx)
		}
		d := NewVec(n)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < n; i++ {
			if k := len(data) - 1 - i; k > 0 {
				d[i] = value(data[k])
				j := int(data[k]) % (i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
		}
		for _, m := range []*CSR{a, raw} {
			if diff := diffBits(m.AddDiag(d), addDiagCOO(m, d)); diff != "" {
				t.Fatalf("AddDiag: %s", diff)
			}
			if diff := diffBits(m.PermuteSym(perm), permuteSymTwoTranspose(m, perm)); diff != "" {
				t.Fatalf("PermuteSym: %s", diff)
			}
			for _, tol := range []float64{0, 0.5, 1} {
				if got, want := m.IsSymmetric(tol), isSymmetricAt(m, tol); got != want {
					t.Fatalf("IsSymmetric(%g) = %v, the At-based check says %v\n%v", tol, got, want, m)
				}
			}
		}
	})
}
