// Command dtmgen generates sparse SPD test systems (the workloads of the
// paper's Section 7 and a few extras) and writes them to disk in MatrixMarket
// format, understood by internal/sparse, cmd/dtmsolve and external tools.
// After writing it prints the file's "mm:<path>@<fnv64 hash>" source spec,
// ready to paste into dtmsolve -source or a dtmd coordinator: every worker
// that loads the file verifies the content hash before tearing.
//
// Usage examples:
//
//	dtmgen -source "poisson:nx=33,ny=33" -matrix A.mtx -rhs b.vec
//	dtmgen -source "grid:rows=65,cols=65,seed=4225" -matrix A4225.mtx -rhs b4225.vec
//	dtmgen -source "spanner:n=289,k=6,seed=1,leak=0.05" -matrix spanner.mtx -rhs spanner.vec
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/sparse"
)

func main() {
	var (
		source = flag.String("source", "poisson:nx=33,ny=33", fmt.Sprintf("problem-source string (%v)", sparse.RegisteredSources()))
		matrix = flag.String("matrix", "A.mtx", "output matrix file (MatrixMarket coordinate format)")
		rhs    = flag.String("rhs", "b.vec", "output right-hand-side file (MatrixMarket array format)")
		sym    = flag.Bool("sym", false, "write the matrix in MatrixMarket symmetric form (stores one triangle, halves the file)")
	)
	flag.Parse()

	src, err := sparse.ParseSource(*source)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtmgen: %v\n", err)
		os.Exit(2)
	}
	if err := generate(os.Stdout, src, *matrix, *rhs, *sym); err != nil {
		fmt.Fprintf(os.Stderr, "dtmgen: %v\n", err)
		os.Exit(1)
	}
}

// generate builds the source's system, writes it, and prints the mm: spec
// that names the written matrix.
func generate(w io.Writer, src sparse.Source, matrix, rhs string, sym bool) error {
	sys, _, err := src.Build()
	if err != nil {
		return err
	}
	if err := writeSystem(sys, matrix, rhs, sym); err != nil {
		return err
	}
	hash, err := sparse.HashFileFNV64(matrix)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (n=%d, nnz=%d) and %s\n", matrix, sys.Dim(), sys.A.NNZ(), rhs)
	fmt.Fprintf(w, "source spec: %s\n", sparse.MMSource{Path: matrix, Hash: hash})
	return nil
}

func writeSystem(sys sparse.System, matrixPath, rhsPath string, symmetric bool) error {
	mf, err := os.Create(matrixPath)
	if err != nil {
		return err
	}
	defer mf.Close()
	write := sparse.WriteMatrix
	if symmetric {
		write = sparse.WriteMatrixSym
	}
	if err := write(mf, sys.A); err != nil {
		return err
	}
	rf, err := os.Create(rhsPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	return sparse.WriteVec(rf, sys.B)
}
