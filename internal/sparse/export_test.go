package sparse

import (
	"cmp"
	"maps"
	"slices"
)

// The oracles of oracle_test.go and their byte comparison, for the external
// tests in this directory that feed them real tears.
var (
	AddDiagOracle     = addDiagCOO
	PermuteSymOracle  = permuteSymTwoTranspose
	IsSymmetricOracle = isSymmetricAt
	DiffBits          = diffBits
)

// RawCSR assembles the n×n matrix storing exactly the given entries, zeros
// and −0.0 included, which no builder stores.
func RawCSR(n int, entries map[[2]int]float64) *CSR {
	m := &CSR{rows: n, cols: n, rowPtr: make([]int, n+1)}
	for _, pos := range slices.SortedFunc(maps.Keys(entries), func(p, q [2]int) int {
		return cmp.Or(cmp.Compare(p[0], q[0]), cmp.Compare(p[1], q[1]))
	}) {
		m.colIdx = append(m.colIdx, pos[1])
		m.vals = append(m.vals, entries[pos])
		m.rowPtr[pos[0]+1]++
	}
	for i := range n {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}
