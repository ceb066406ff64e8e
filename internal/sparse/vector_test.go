package sparse

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewVecIsZero(t *testing.T) {
	v := NewVec(5)
	if len(v) != 5 {
		t.Fatalf("len = %d, want 5", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("v[%d] = %g, want 0", i, x)
		}
	}
}

func TestVecFill(t *testing.T) {
	v := NewVec(4)
	v.Fill(2.5)
	for i, x := range v {
		if x != 2.5 {
			t.Errorf("after Fill, v[%d] = %g", i, x)
		}
	}
}

func TestVecCloneIsIndependent(t *testing.T) {
	v := Vec{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Errorf("Clone aliases the original: v[0] = %g", v[0])
	}
	if len(w) != len(v) {
		t.Errorf("Clone length %d, want %d", len(w), len(v))
	}
}

func TestVecCopyFrom(t *testing.T) {
	v := NewVec(3)
	v.CopyFrom(Vec{4, 5, 6})
	if !v.Equal(Vec{4, 5, 6}, 0) {
		t.Errorf("CopyFrom result = %v", v)
	}
}

func TestVecSubIsNonDestructive(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{10, 20, 30}
	diff := w.Sub(v)
	if !diff.Equal(Vec{9, 18, 27}, 0) {
		t.Errorf("Sub = %v", diff)
	}
	if !v.Equal(Vec{1, 2, 3}, 0) || !w.Equal(Vec{10, 20, 30}, 0) {
		t.Errorf("Sub must not modify its operands: v=%v w=%v", v, w)
	}
}

func TestVecAddScaledMutatesReceiver(t *testing.T) {
	v := Vec{1, 1, 1}
	v.AddScaled(2, Vec{1, 2, 3})
	if !v.Equal(Vec{3, 5, 7}, 0) {
		t.Errorf("AddScaled = %v, want [3 5 7]", v)
	}
}

func TestVecScale(t *testing.T) {
	v := Vec{1, -2, 3}
	v.Scale(-2)
	if !v.Equal(Vec{-2, 4, -6}, 0) {
		t.Errorf("Scale = %v", v)
	}
}

func TestVecDot(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, -5, 6}
	if got := v.Dot(w); got != 12 {
		t.Errorf("Dot = %g, want 12", got)
	}
	if got := NewVec(0).Dot(NewVec(0)); got != 0 {
		t.Errorf("empty Dot = %g, want 0", got)
	}
}

func TestVecNorms(t *testing.T) {
	v := Vec{3, -4}
	if got := v.Norm2(); !almostEqual(got, 5, 1e-14) {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Errorf("NormInf = %g, want 4", got)
	}
	if got := v.RMS(); !almostEqual(got, 5/math.Sqrt2, 1e-14) {
		t.Errorf("RMS = %g, want %g", got, 5/math.Sqrt2)
	}
}

func TestVecRMSErrorAndMaxAbsDiff(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{1, 2, 6}
	if got := v.MaxAbsDiff(w); got != 3 {
		t.Errorf("MaxAbsDiff = %g, want 3", got)
	}
	want := math.Sqrt(9.0 / 3.0)
	if got := v.RMSError(w); !almostEqual(got, want, 1e-14) {
		t.Errorf("RMSError = %g, want %g", got, want)
	}
	if got := v.RMSError(v); got != 0 {
		t.Errorf("RMSError against itself = %g, want 0", got)
	}
}

// TestMaxAbsDiffPropagatesNaN: an oracle distance is tested as !(d <= tol), so
// a NaN anywhere in the answer must come back as NaN, never as the maximum of
// the entries that happen to compare.
func TestMaxAbsDiffPropagatesNaN(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct{ v, w Vec }{
		{Vec{nan, 1}, Vec{0, 1}},
		{Vec{5, nan}, Vec{0, 1}},
		{Vec{0, 1}, Vec{nan, 1}},
		{Vec{math.Inf(1)}, Vec{math.Inf(1)}},
	} {
		if d := c.v.MaxAbsDiff(c.w); !math.IsNaN(d) {
			t.Errorf("%v.MaxAbsDiff(%v) = %g, want NaN", c.v, c.w, d)
		}
	}
	if d := (Vec{1, math.Inf(1)}).MaxAbsDiff(Vec{1, 0}); !math.IsInf(d, 1) {
		t.Errorf("an infinite difference must stay +Inf, got %g", d)
	}
}

func TestVecEqualToleranceSemantics(t *testing.T) {
	v := Vec{1, 2}
	if !v.Equal(Vec{1, 2 + 1e-12}, 1e-10) {
		t.Errorf("Equal within tolerance should hold")
	}
	if v.Equal(Vec{1, 2.1}, 1e-3) {
		t.Errorf("Equal outside tolerance should fail")
	}
	if v.Equal(Vec{1, 2, 3}, 1) {
		t.Errorf("vectors of different length are never equal")
	}
}

func TestRandomVecDeterministic(t *testing.T) {
	a := RandomVec(16, 42)
	b := RandomVec(16, 42)
	c := RandomVec(16, 43)
	if !a.Equal(b, 0) {
		t.Errorf("same seed must give the same vector")
	}
	if a.Equal(c, 0) {
		t.Errorf("different seeds should give different vectors")
	}
	if n := a.Norm2(); math.IsNaN(n) || math.IsInf(n, 0) {
		t.Errorf("random vector is not finite")
	}
}

// Property: the dot product is symmetric and compatible with the 2-norm.
func TestVecDotProperties(t *testing.T) {
	f := func(raw []float64) bool {
		// Keep sizes small and values finite.
		if len(raw) > 64 {
			raw = raw[:64]
		}
		v := make(Vec, len(raw))
		w := make(Vec, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			x = math.Mod(x, 1e6)
			v[i] = x
			w[len(raw)-1-i] = x / 2
		}
		if math.Abs(v.Dot(w)-w.Dot(v)) > 1e-6*math.Max(1, math.Abs(v.Dot(w))) {
			return false
		}
		n2 := v.Norm2()
		return math.Abs(n2*n2-v.Dot(v)) <= 1e-6*math.Max(1, n2*n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: RMSError(v, w) is zero iff the vectors agree entry-wise, and it is
// symmetric in its arguments.
func TestVecRMSErrorProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		v := make(Vec, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = math.Mod(x, 1e6)
		}
		w := v.Clone()
		if v.RMSError(w) != 0 {
			return false
		}
		w[0] += 1
		return almostEqual(v.RMSError(w), w.RMSError(v), 1e-12) && v.RMSError(w) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteVecReadVecRoundTrip(t *testing.T) {
	v := Vec{1.5, -2.25, 0, 3.75e-7, 12345.678901234567}
	var sb strings.Builder
	if err := WriteVec(&sb, v); err != nil {
		t.Fatalf("WriteVec: %v", err)
	}
	got, err := ReadVec(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadVec: %v", err)
	}
	if !got.Equal(v, 0) {
		t.Errorf("round trip = %v, want %v", got, v)
	}
}

func TestReadVecErrors(t *testing.T) {
	cases := map[string]string{
		"empty input":      "",
		"bad header":       "%%MatrixMarket matrix array real general\nnot a number 1\n1\n",
		"wrong col count":  "%%MatrixMarket matrix array real general\n2 2\n1\n2\n",
		"missing entries":  "%%MatrixMarket matrix array real general\n3 1\n1\n2\n",
		"non-numeric body": "%%MatrixMarket matrix array real general\n1 1\nhello\n",
		"infinite entry":   "%%MatrixMarket matrix array real general\n2 1\n1\n-inf\n",
		"NaN coordinate":   "%%MatrixMarket matrix coordinate real general\n2 1 1\n2 1 nan\n",
	}
	for name, in := range cases {
		if _, err := ReadVec(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}
