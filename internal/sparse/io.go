package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file reads and writes the Matrix Market exchange format (.mtx), so
// externally generated systems can be fed through the solvers and generated
// systems can be consumed by other tools:
//
//	%%MatrixMarket matrix coordinate real general
//	% comment lines start with %
//	rows cols nnz
//	i j value          (1-based indices, one entry per line)
//
// The reader accepts the common variants real-world collections use:
// "coordinate" and "array" formats, "real"/"double"/"integer"/"pattern"
// fields, and "general"/"symmetric"/"skew-symmetric" symmetry (symmetric
// files store one triangle; the reader mirrors it). A missing banner defaults
// to coordinate/real/general, which keeps old files readable. Complex and
// Hermitian matrices are rejected with a clear error.
//
// Vectors use the array format:
//
//	%%MatrixMarket matrix array real general
//	n 1
//	value              (one per line)

// mmHeader is a parsed MatrixMarket banner.
type mmHeader struct {
	format   string // coordinate | array
	field    string // real | integer | pattern
	symmetry string // general | symmetric | skew-symmetric
}

// readBanner consumes comment lines, parsing the MatrixMarket banner when
// present, and returns the header plus the first data line's fields.
func readBanner(sc *bufio.Scanner) (mmHeader, []string, error) {
	hdr := mmHeader{format: "coordinate", field: "real", symmetry: "general"}
	seenBanner := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "%") {
			if !seenBanner && strings.HasPrefix(strings.ToLower(line), "%%matrixmarket") {
				seenBanner = true
				f := strings.Fields(strings.ToLower(line))
				if len(f) != 5 || f[1] != "matrix" {
					return hdr, nil, fmt.Errorf("sparse: malformed MatrixMarket banner %q", line)
				}
				hdr.format, hdr.field, hdr.symmetry = f[2], f[3], f[4]
				switch hdr.format {
				case "coordinate", "array":
				default:
					return hdr, nil, fmt.Errorf("sparse: unsupported MatrixMarket format %q", hdr.format)
				}
				switch hdr.field {
				case "real", "double", "integer":
					hdr.field = "real"
				case "pattern":
				default:
					return hdr, nil, fmt.Errorf("sparse: unsupported MatrixMarket field %q", hdr.field)
				}
				switch hdr.symmetry {
				case "general", "symmetric", "skew-symmetric":
				default:
					return hdr, nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", hdr.symmetry)
				}
			}
			continue
		}
		return hdr, strings.Fields(line), nil
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, err
	}
	return hdr, nil, io.ErrUnexpectedEOF
}

// WriteMatrix writes m in MatrixMarket coordinate real general format.
func WriteMatrix(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.Rows(), m.Cols(), m.NNZ()); err != nil {
		return err
	}
	var werr error
	m.Each(func(i, j int, v float64) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, v)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// WriteMatrixSym writes the lower triangle of the symmetric matrix m in
// MatrixMarket coordinate real symmetric format (half the file size of the
// general form; ReadMatrix mirrors it back).
func WriteMatrixSym(w io.Writer, m *CSR) error {
	if m.Rows() != m.Cols() {
		return fmt.Errorf("sparse: WriteMatrixSym of non-square %dx%d matrix", m.Rows(), m.Cols())
	}
	lower := 0
	m.Each(func(i, j int, v float64) {
		if j <= i {
			lower++
		}
	})
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n", m.Rows(), m.Cols(), lower); err != nil {
		return err
	}
	var werr error
	m.Each(func(i, j int, v float64) {
		if werr != nil || j > i {
			return
		}
		_, werr = fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, v)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadMatrix reads a matrix in MatrixMarket format (see the file comment for
// the accepted subset).
func ReadMatrix(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	hdr, fields, err := readBanner(sc)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading matrix header: %w", err)
	}
	if hdr.format == "array" {
		return readArrayMatrix(sc, hdr, fields)
	}
	return readCoordinateMatrix(sc, hdr, fields)
}

func readCoordinateMatrix(sc *bufio.Scanner, hdr mmHeader, header []string) (*CSR, error) {
	if len(header) != 3 {
		return nil, fmt.Errorf("sparse: coordinate matrix header must have 3 fields, got %d", len(header))
	}
	rows, err1 := strconv.Atoi(header[0])
	cols, err2 := strconv.Atoi(header[1])
	nnz, err3 := strconv.Atoi(header[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("sparse: malformed matrix header %q", strings.Join(header, " "))
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: negative matrix header values")
	}
	mirror := hdr.symmetry == "symmetric" || hdr.symmetry == "skew-symmetric"
	if mirror && rows != cols {
		return nil, fmt.Errorf("sparse: %s matrix must be square, got %dx%d", hdr.symmetry, rows, cols)
	}
	wantFields := 3
	if hdr.field == "pattern" {
		wantFields = 2
	}
	coo := NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		fields, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("sparse: reading entry %d/%d: %w", k+1, nnz, err)
		}
		if len(fields) != wantFields {
			return nil, fmt.Errorf("sparse: entry %d must have %d fields, got %d", k+1, wantFields, len(fields))
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		v, err3 := 1.0, error(nil)
		if hdr.field != "pattern" {
			v, err3 = strconv.ParseFloat(fields[2], 64)
		}
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("sparse: malformed entry %q", strings.Join(fields, " "))
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range %dx%d", i, j, rows, cols)
		}
		if !finite(v) {
			return nil, fmt.Errorf("sparse: entry %d at (%d,%d) is %g, not a finite number", k+1, i, j, v)
		}
		coo.Add(i-1, j-1, v)
		if mirror && i != j {
			mv := v
			if hdr.symmetry == "skew-symmetric" {
				mv = -v
			}
			coo.Add(j-1, i-1, mv)
		}
	}
	return coo.ToCSR(), nil
}

func readArrayMatrix(sc *bufio.Scanner, hdr mmHeader, header []string) (*CSR, error) {
	if hdr.field == "pattern" {
		return nil, fmt.Errorf("sparse: array format cannot be pattern")
	}
	if len(header) != 2 {
		return nil, fmt.Errorf("sparse: array matrix header must have 2 fields, got %d", len(header))
	}
	rows, err1 := strconv.Atoi(header[0])
	cols, err2 := strconv.Atoi(header[1])
	if err1 != nil || err2 != nil || rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: malformed array matrix header %q", strings.Join(header, " "))
	}
	mirror := hdr.symmetry == "symmetric" || hdr.symmetry == "skew-symmetric"
	if mirror && rows != cols {
		return nil, fmt.Errorf("sparse: %s matrix must be square, got %dx%d", hdr.symmetry, rows, cols)
	}
	coo := NewCOO(rows, cols)
	read := func() (float64, error) {
		fields, err := nextDataLine(sc)
		if err != nil {
			return 0, err
		}
		return strconv.ParseFloat(fields[0], 64)
	}
	// Column-major; symmetric variants store the lower triangle of each
	// column, skew-symmetric ones the strictly lower triangle (the diagonal
	// is identically zero and not stored).
	for j := 0; j < cols; j++ {
		i0 := 0
		if mirror {
			i0 = j
			if hdr.symmetry == "skew-symmetric" {
				i0 = j + 1
			}
		}
		for i := i0; i < rows; i++ {
			v, err := read()
			if err != nil {
				return nil, fmt.Errorf("sparse: reading array entry (%d,%d): %w", i+1, j+1, err)
			}
			if !finite(v) {
				return nil, fmt.Errorf("sparse: array entry (%d,%d) is %g, not a finite number", i+1, j+1, v)
			}
			coo.Add(i, j, v)
			if mirror && i != j {
				mv := v
				if hdr.symmetry == "skew-symmetric" {
					mv = -v
				}
				coo.Add(j, i, mv)
			}
		}
	}
	return coo.ToCSR(), nil
}

// WriteVec writes v in MatrixMarket array text format.
func WriteVec(w io.Writer, v Vec) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix array real general\n%d 1\n", len(v)); err != nil {
		return err
	}
	for _, x := range v {
		if _, err := fmt.Fprintf(bw, "%.17g\n", x); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadVec reads a vector: an n×1 MatrixMarket matrix in array format (the
// format WriteVec produces) or in coordinate format (unstored entries zero).
func ReadVec(r io.Reader) (Vec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	hdr, fields, err := readBanner(sc)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading vector header: %w", err)
	}
	if hdr.format == "coordinate" && len(fields) == 3 {
		m, err := readCoordinateMatrix(sc, hdr, fields)
		if err != nil {
			return nil, err
		}
		if m.Cols() != 1 {
			return nil, fmt.Errorf("sparse: vector file is %dx%d, want a single column", m.Rows(), m.Cols())
		}
		v := NewVec(m.Rows())
		m.Each(func(i, j int, x float64) { v[i] = x })
		return v, nil
	}
	if len(fields) != 2 {
		return nil, fmt.Errorf("sparse: vector header must have 2 fields, got %d", len(fields))
	}
	n, err1 := strconv.Atoi(fields[0])
	cols, err2 := strconv.Atoi(fields[1])
	if err1 != nil || err2 != nil || cols != 1 || n < 0 {
		return nil, fmt.Errorf("sparse: malformed vector header %q", strings.Join(fields, " "))
	}
	v := NewVec(n)
	for i := 0; i < n; i++ {
		fields, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("sparse: reading vector entry %d/%d: %w", i+1, n, err)
		}
		x, perr := strconv.ParseFloat(fields[0], 64)
		if perr != nil {
			return nil, fmt.Errorf("sparse: malformed vector entry %q", fields[0])
		}
		if !finite(x) {
			return nil, fmt.Errorf("sparse: vector entry %d is %g, not a finite number", i+1, x)
		}
		v[i] = x
	}
	return v, nil
}

// finite reports whether v is neither NaN nor ±Inf. The readers refuse other
// values: a matrix holding one would load, then fail far from the file (or
// "converge" to NaN) in whatever solver it was handed to.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// nextDataLine returns the fields of the next non-comment, non-empty line.
func nextDataLine(sc *bufio.Scanner) ([]string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#") {
			continue
		}
		return strings.Fields(line), nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}
