package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// Triplet is a single (row, col, value) entry of a matrix in coordinate form.
type Triplet struct {
	Row, Col int
	Val      float64
}

// COO is a matrix under construction in coordinate (triplet) form. Duplicate
// entries are allowed and are summed when the matrix is compiled to CSR.
// COO is the builder type; CSR is the operational type.
type COO struct {
	rows, cols int
	entries    []Triplet
}

// NewCOO returns an empty rows×cols coordinate-form matrix.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: NewCOO negative dimension %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Grow makes room for n more entries, so a builder that knows (or bounds)
// its entry count assembles without regrowing.
func (c *COO) Grow(n int) {
	c.entries = slices.Grow(c.entries, n)
}

// Add appends value v at (i, j). Zero values are ignored so generators can add
// unconditionally. Adding the same position twice accumulates.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range %dx%d", i, j, c.rows, c.cols))
	}
	if v == 0 {
		return
	}
	c.entries = append(c.entries, Triplet{Row: i, Col: j, Val: v})
}

// AddSym adds value v at (i, j) and, when i != j, also at (j, i). It is the
// natural way to build the symmetric matrices DTM operates on.
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// ToCSR compiles the COO matrix into compressed-sparse-row form, summing
// duplicates and dropping entries that cancel to exactly zero. It is a counting
// sort by row followed by a stable sort by column within each row, so the
// triplets of one position meet in the order they were added and are summed
// left to right in that order.
func (c *COO) ToCSR() *CSR {
	type entry struct {
		col int
		val float64
	}
	// Counting sort by row. end[r] starts as the offset of row r in byRow and,
	// advanced by the scatter, finishes as the offset one past its last entry.
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
	return &CSR{
		rows:   c.rows,
		cols:   c.cols,
		rowPtr: rowPtr,
		colIdx: colIdx,
		vals:   vals,
	}
}
