package sparse

import (
	"fmt"
	"slices"
	"sort"
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
// sort by row straight into the output arrays followed by a stable sort by
// column within each row, so the triplets of one position meet in the order
// they were added and are summed left to right in that order.
func (c *COO) ToCSR() *CSR {
	// Counting sort by row. After the scatter, row r occupies
	// [ptr[r], ptr[r+1]): counting into ptr[row+2] and advancing ptr[row+1]
	// leaves each slot pointer on the start of the next row.
	ptr := make([]int, c.rows+2)
	for _, t := range c.entries {
		ptr[t.Row+2]++
	}
	for r := 1; r <= c.rows; r++ {
		ptr[r+1] += ptr[r]
	}
	colIdx := make([]int, len(c.entries))
	vals := make([]float64, len(c.entries))
	for _, t := range c.entries {
		k := ptr[t.Row+1]
		colIdx[k], vals[k] = t.Col, t.Val
		ptr[t.Row+1]++
	}
	return packRows(c.rows, c.cols, ptr[:c.rows], ptr[1:], colIdx, vals)
}

// RowBuilder assembles a CSR when a bound on the entry count of every row is
// known before the first entry: each entry goes straight into a slot of its
// row, so compiling needs no sort by row and no copy of the triplets. Add keeps
// COO's rules — zero values are ignored, and a position added twice holds the
// sum of its values in the order they were added — and ToCSR yields the matrix
// COO.ToCSR would yield for the same sequence of Add calls, bit for bit.
type RowBuilder struct {
	rows, cols int
	start      []int // row r's slots are [start[r], start[r+1])
	end        []int // one past row r's last entry
	colIdx     []int
	vals       []float64
}

// NewRowBuilder returns an empty rows×cols builder whose row r takes at most
// bound(r) entries.
func NewRowBuilder(rows, cols int, bound func(row int) int) *RowBuilder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: NewRowBuilder negative dimension %dx%d", rows, cols))
	}
	start := make([]int, rows+1)
	for r := 0; r < rows; r++ {
		k := bound(r)
		if k < 0 {
			panic(fmt.Sprintf("sparse: NewRowBuilder negative bound %d for row %d", k, r))
		}
		start[r+1] = start[r] + k
	}
	return &RowBuilder{
		rows:   rows,
		cols:   cols,
		start:  start,
		end:    slices.Clone(start[:rows]),
		colIdx: make([]int, start[rows]),
		vals:   make([]float64, start[rows]),
	}
}

// Add puts value v at (i, j), as COO.Add does. It panics when row i already
// holds as many entries as its bound.
func (b *RowBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: RowBuilder.Add index (%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	k := b.end[i]
	if k == b.start[i+1] {
		panic(fmt.Sprintf("sparse: RowBuilder.Add row %d exceeds its bound of %d entries", i, b.start[i+1]-b.start[i]))
	}
	b.colIdx[k], b.vals[k] = j, v
	b.end[i]++
}

// AddSym adds value v at (i, j) and, when i != j, also at (j, i).
func (b *RowBuilder) AddSym(i, j int, v float64) {
	b.Add(i, j, v)
	if i != j {
		b.Add(j, i, v)
	}
}

// ToCSR compiles the rows into compressed-sparse-row form. The matrix takes
// over the builder's storage, so the builder must not be used afterwards.
func (b *RowBuilder) ToCSR() *CSR {
	return packRows(b.rows, b.cols, b.start[:b.rows], b.end, b.colIdx, b.vals)
}

// packRows compiles rows laid out in slots into a CSR, in place. Row r's
// entries sit in colIdx[start[r]:end[r]] and vals beside them, in the order
// they were added, and no row's entries reach into the next row's slots. Each
// row is sorted by column, stably; the values of a repeated column are summed
// left to right from zero, and a sum of zero is not stored; and the rows are
// moved down over the free slots, so the matrix takes over colIdx and vals.
func packRows(rows, cols int, start, end []int, colIdx []int, vals []float64) *CSR {
	rowPtr := make([]int, rows+1)
	w := 0
	for r := 0; r < rows; r++ {
		rc, rv := colIdx[start[r]:end[r]], vals[start[r]:end[r]]
		sortRow(rc, rv)
		for i := 0; i < len(rc); {
			col, sum := rc[i], 0.0
			for ; i < len(rc) && rc[i] == col; i++ {
				sum += rv[i]
			}
			if sum != 0 {
				colIdx[w], vals[w] = col, sum
				w++
			}
		}
		rowPtr[r+1] = w
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx[:w], vals: vals[:w]}
}

// insertionMax is the longest row sortRow sorts by insertion. The rows of the
// matrices DTM tears hold a handful of entries, often already in order; a
// longer row takes sort.Stable, whose cost does not grow with its square.
const insertionMax = 32

// sortRow sorts one row's columns ascending, moving each value with its
// column. It is stable: entries of one column keep their order.
func sortRow(cols []int, vals []float64) {
	if len(cols) > insertionMax {
		sort.Stable(rowSorter{cols, vals})
		return
	}
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i
		for ; j > 0 && cols[j-1] > c; j-- {
			cols[j], vals[j] = cols[j-1], vals[j-1]
		}
		cols[j], vals[j] = c, v
	}
}

// rowSorter orders one row's parallel column and value slices by column.
type rowSorter struct {
	cols []int
	vals []float64
}

func (s rowSorter) Len() int           { return len(s.cols) }
func (s rowSorter) Less(a, b int) bool { return s.cols[a] < s.cols[b] }
func (s rowSorter) Swap(a, b int) {
	s.cols[a], s.cols[b] = s.cols[b], s.cols[a]
	s.vals[a], s.vals[b] = s.vals[b], s.vals[a]
}
