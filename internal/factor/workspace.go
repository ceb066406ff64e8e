package factor

import "sync"

// workspace is the scratch of one symbolic computation — an ordering, an
// analysis, the scalar numeric phase: int32 and float64 arrays carved from
// one buffer each, two growable arenas for AMD's element and boundary lists,
// and an int buffer. Workspaces are pooled, so after the first call of a given size an
// ordering or an analysis allocates only what it returns.
type workspace struct {
	buf    []int32
	off    int
	f64    []float64
	foff   int
	arena  [2][]int32
	ints   []int
	blocks []snBlock // the supernodal amalgamation stack
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

func getWorkspace() *workspace { return workspaces.Get().(*workspace) }

func (w *workspace) release() {
	w.off, w.foff = 0, 0
	workspaces.Put(w)
}

// take carves n uninitialised int32s. When the buffer is short a larger one
// replaces it; the slices already carved keep the old one alive, and the
// next computation of this size fits in one buffer.
func (w *workspace) take(n int) []int32 {
	if w.off+n > len(w.buf) {
		w.buf = make([]int32, max(2*len(w.buf), w.off+n))
		w.off = 0
	}
	s := w.buf[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}

// filled carves n int32s set to v.
func (w *workspace) filled(n int, v int32) []int32 {
	s := w.take(n)
	for i := range s {
		s[i] = v
	}
	return s
}

// intBuf returns n uninitialised ints (one buffer; a second call reuses it).
func (w *workspace) intBuf(n int) []int {
	if cap(w.ints) < n {
		w.ints = make([]int, n)
	}
	w.ints = w.ints[:n]
	return w.ints
}

// takeFloats carves n uninitialised float64s, as take carves int32s.
func (w *workspace) takeFloats(n int) []float64 {
	if w.foff+n > len(w.f64) {
		w.f64 = make([]float64, max(2*len(w.f64), w.foff+n))
		w.foff = 0
	}
	s := w.f64[w.foff : w.foff+n : w.foff+n]
	w.foff += n
	return s
}

// floats carves n zeroed float64s.
func (w *workspace) floats(n int) []float64 {
	s := w.takeFloats(n)
	clear(s)
	return s
}
