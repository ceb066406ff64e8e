// Package sparse provides the sparse-matrix and dense-vector substrate used by
// the Directed Transmission Method (DTM) reproduction: COO/CSR storage, matrix
// generators for the paper's workloads, simple text I/O, and the vector algebra
// every solver in the repository builds on.
//
// Everything is implemented with the standard library only.
package sparse

import (
	"fmt"
	"math"
)

// Vec is a dense vector of float64.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// CopyFrom copies src into v. The lengths must match.
func (v Vec) CopyFrom(src Vec) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("sparse: CopyFrom length mismatch %d vs %d", len(v), len(src)))
	}
	copy(v, src)
}

// Fill sets every entry of v to x.
func (v Vec) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("sparse: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 {
	// Scaled accumulation to avoid overflow/underflow on extreme inputs.
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum-magnitude entry of v.
func (v Vec) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// RMS returns the root-mean-square of v, the error metric the paper plots.
func (v Vec) RMS() float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s / float64(len(v)))
}

// Scale multiplies v in place by a.
func (v Vec) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// AddScaled sets v += a*w in place.
func (v Vec) AddScaled(a float64, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("sparse: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("sparse: Sub length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// MaxAbsDiff returns max_i |v[i]-w[i]|, or NaN as soon as any difference is
// NaN: a distance to an oracle must not read an all-NaN answer as 0, so
// callers can test agreement as !(d <= tol).
func (v Vec) MaxAbsDiff(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("sparse: MaxAbsDiff length mismatch %d vs %d", len(v), len(w)))
	}
	var m float64
	for i := range v {
		d := math.Abs(v[i] - w[i])
		if math.IsNaN(d) {
			return d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// RMSError returns the root-mean-square of v - w, i.e. the "RMS error" in the
// paper's figures when w is the exact solution.
func (v Vec) RMSError(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("sparse: RMSError length mismatch %d vs %d", len(v), len(w)))
	}
	if len(v) == 0 {
		return 0
	}
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// Equal reports whether v and w agree entry-wise within tol.
func (v Vec) Equal(w Vec, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}
