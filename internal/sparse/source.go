package sparse

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// This file is the problem-source registry: named, string-addressable,
// deterministic builders of the systems DTM tears, and the only way the
// CLIs, the experiments and dist.SpecV2 name a system. A source spec is
// "scheme:params" — "grid:rows=33,cols=33,seed=1089", "poisson:nx=33,ny=33",
// "spanner:n=400,k=6,seed=7,leak=0.05", or "mm:/path/to/A.mtx@<fnv64 hash>" —
// and Source.String() renders the canonical form (keys in fixed order,
// defaults spelled out, values normalised), so ParseSource(src.String())
// reproduces src exactly, like chaos.Spec. The canonical string is what
// dist.SpecV2 carries on the wire and folds into its hash: every fleet member
// that resolves the same string provably builds, and therefore tears, the
// same system.

// Hint is the tearing hint a source returns alongside its system: grid
// sources expose their dimensions so callers can keep the paper's regular
// px×py block partitioning; irregular sources leave Grid unset and are torn
// with the general level-set + EVS pipeline instead.
type Hint struct {
	// Grid reports that the system's sparsity pattern is the NX×NY grid
	// (vertex ix + iy·NX) and regular block tearing applies.
	Grid   bool
	NX, NY int
}

// Source is one registered problem source: a named, deterministically
// buildable description of a system A·x = b.
type Source interface {
	// String returns the canonical spec string; ParseSource round-trips it.
	String() string
	// Build constructs the system and its tearing hint. Deterministic: every
	// call, in every process, yields byte-identical data — except mm
	// sources, which instead verify the file content hash and refuse (with a
	// *HashMismatchError) to build a system that differs from the pinned one.
	Build() (System, Hint, error)
}

// ErrHashMismatch is the sentinel every *HashMismatchError matches with
// errors.Is: an mm: source whose file content does not hash to the value
// pinned in the spec.
var ErrHashMismatch = errors.New("sparse: mm source content hash mismatch")

// HashMismatchError is the typed refusal an mm: source returns when the file
// it read does not match the spec's pinned hash — the member would tear a
// different system than the rest of the fleet.
type HashMismatchError struct {
	Path      string
	Want, Got uint64
}

func (e *HashMismatchError) Error() string {
	return fmt.Sprintf("sparse: mm source %s: content hash %016x does not match pinned %016x",
		e.Path, e.Got, e.Want)
}

// Is makes errors.Is(err, ErrHashMismatch) match.
func (e *HashMismatchError) Is(target error) bool { return target == ErrHashMismatch }

const (
	// maxSide and maxUnknowns bound generated problem sizes so a hostile
	// spec string cannot request a multi-terabyte build.
	maxSide     = 1 << 16
	maxUnknowns = 1 << 24
)

// value is one parsed parameter. Integer parameters fill both fields (a seed
// needs the whole int64 range, which a float64 cannot carry); real ones only f.
type value struct {
	i int64
	f float64
}

// param is one key of a scheme's parameter list: its default and its
// inclusive range. A spec may give the keys in any order and omit any of
// them; the canonical string spells all of them, in table order.
type param struct {
	key         string
	real        bool
	def, lo, hi float64
}

func integer(key string, def, lo, hi float64) param { return param{key, false, def, lo, hi} }
func real(key string, def, lo, hi float64) param    { return param{key, true, def, lo, hi} }

// side is one side of a generated grid; seed takes any int64.
func side(key string, def float64) param { return integer(key, def, 1, maxSide) }
func seed() param                        { return integer("seed", 1, math.MinInt64, math.MaxInt64) }

func (p param) parse(s string) (v value, err error) {
	if p.real {
		v.f, err = strconv.ParseFloat(s, 64)
	} else {
		v.i, err = strconv.ParseInt(s, 10, 64)
		v.f = float64(v.i)
	}
	if err == nil && !(v.f >= p.lo && v.f <= p.hi) { // also rejects NaN
		err = fmt.Errorf("value %s out of range [%g,%g]", s, p.lo, p.hi)
	}
	return v, err
}

// format is canonical: decimal integers, the shortest real that round-trips.
func (p param) format(v value) string {
	if p.real {
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	}
	return strconv.FormatInt(v.i, 10)
}

// values holds one checked value per parameter of a scheme, in table order.
type values []value

func (v values) n(i int) int { return int(v[i].i) }

// unknowns refuses a spec whose leading dims parameters multiply to more
// than maxUnknowns (each is at most maxSide and there are at most three, so
// the product cannot overflow).
func (v values) unknowns(dims int) error {
	n := int64(1)
	for _, d := range v[:dims] {
		n *= d.i
	}
	if n > maxUnknowns {
		return fmt.Errorf("%d unknowns exceed the limit of %d", n, maxUnknowns)
	}
	return nil
}

func (v values) gridHint() Hint { return Hint{Grid: true, NX: v.n(0), NY: v.n(1)} }

// scheme is one row of the registry: a name, its ordered parameters, an
// optional check across them, and the generator the values feed. Only mm,
// whose parameter part is not a key=value list, brings its own parser.
type scheme struct {
	name   string
	params []param
	check  func(v values) error
	build  func(v values) (System, Hint)
	parse  func(params string) (Source, error)
}

// schemes is the registry, in name order. Each generator's own comment in
// build.go says what the system is.
var schemes = []scheme{{
	name:   "grid", // the paper's Section 7 workload
	params: []param{side("rows", 17), side("cols", 17), seed()},
	check:  func(v values) error { return v.unknowns(2) },
	build:  func(v values) (System, Hint) { return RandomGridSPD(v.n(0), v.n(1), v[2].i), v.gridHint() },
}, {
	name:  "mm",
	parse: parseMM,
}, {
	// nz = 1 is the 5-point stencil on nx×ny; nz > 1 the 7-point stencil on
	// nx×ny×nz, which has no 2-D tearing hint.
	name:   "poisson",
	params: []param{side("nx", 33), side("ny", 33), side("nz", 1), real("shift", 0.05, 0, 1e6)},
	check:  func(v values) error { return v.unknowns(3) },
	build: func(v values) (System, Hint) {
		if v.n(2) == 1 {
			return Poisson2D(v.n(0), v.n(1), v[3].f), v.gridHint()
		}
		return Poisson3D(v.n(0), v.n(1), v.n(2), v[3].f), Hint{}
	},
}, {
	// Generation visits every pair of unknowns, so n is bounded well below
	// the other schemes', and the expected fill with it.
	name:   "random",
	params: []param{integer("n", 500, 1, maxSide), real("density", 0.02, 0, 1), seed()},
	check: func(v values) error {
		if nnz := v[0].f * v[0].f * v[1].f; nnz > 4*maxUnknowns {
			return fmt.Errorf("about %.3g nonzeros exceed the limit of %d", nnz, 4*maxUnknowns)
		}
		return nil
	},
	build: func(v values) (System, Hint) { return RandomSPD(v.n(0), v[1].f, v[2].i), Hint{} },
}, {
	name:   "resistor",
	params: []param{side("nx", 33), side("ny", 33), seed()},
	check:  func(v values) error { return v.unknowns(2) },
	build:  func(v values) (System, Hint) { return ResistorNetwork(v.n(0), v.n(1), v[2].i), v.gridHint() },
}, {
	name:   "saddle", // indefinite and irregular: the non-SPD workload
	params: []param{side("nx", 16), side("ny", 16), real("gamma", 0.01, 1e-12, 1e6)},
	check:  func(v values) error { return v.unknowns(2) },
	build:  func(v values) (System, Hint) { return SaddlePoisson2D(v.n(0), v.n(1), v[2].f), Hint{} },
}, {
	name: "spanner",
	params: []param{integer("n", 289, 1, maxUnknowns), integer("k", 6, 1, 64), seed(),
		real("leak", 0.05, 1e-12, 1e6)},
	build: func(v values) (System, Hint) {
		return YaoSpannerLaplacian(v.n(0), v.n(1), v[2].i, v[3].f), Hint{}
	},
}, {
	name: "tridiag", // the defaults are the 1-D Laplacian plus a small shift
	params: []param{integer("n", 500, 1, maxUnknowns), real("diag", 2.1, -1e6, 1e6),
		real("off", -1, -1e6, 1e6)},
	build: func(v values) (System, Hint) { return Tridiagonal(v.n(0), v[1].f, v[2].f), Hint{} },
}}

// RegisteredSources returns the registered scheme names, sorted.
func RegisteredSources() []string {
	names := make([]string, len(schemes))
	for i := range schemes {
		names[i] = schemes[i].name
	}
	return names
}

// ParseSource parses a source spec string into a validated Source.
func ParseSource(spec string) (Source, error) {
	name, params, ok := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	i := slices.IndexFunc(schemes, func(sc scheme) bool { return sc.name == name })
	if !ok || i < 0 {
		return nil, fmt.Errorf("sparse: source spec %q is not scheme:params with a registered scheme (have %s)",
			spec, strings.Join(RegisteredSources(), ", "))
	}
	parse := schemes[i].parseKV
	if schemes[i].parse != nil {
		parse = schemes[i].parse
	}
	src, err := parse(strings.TrimSpace(params))
	if err != nil {
		return nil, fmt.Errorf("sparse: source spec %q: %w", spec, err)
	}
	return src, nil
}

// parseKV parses "key=value,key=value,..." against the scheme's parameters.
// Missing keys keep their defaults; unknown keys are rejected.
func (sc *scheme) parseKV(params string) (Source, error) {
	v := make(values, len(sc.params))
	for i, p := range sc.params {
		v[i] = value{i: int64(p.def), f: p.def}
	}
	for _, item := range strings.Split(params, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("parameter %q is not key=value", item)
		}
		key = strings.TrimSpace(key)
		i := slices.IndexFunc(sc.params, func(p param) bool { return p.key == key })
		if i < 0 {
			return nil, fmt.Errorf("unknown parameter %q (a full spec reads %q)", key, generated{sc, v})
		}
		var err error
		if v[i], err = sc.params[i].parse(strings.TrimSpace(val)); err != nil {
			return nil, fmt.Errorf("parameter %q: %w", item, err)
		}
	}
	if sc.check != nil {
		if err := sc.check(v); err != nil {
			return nil, err
		}
	}
	return generated{sc: sc, v: v}, nil
}

// generated is a source of any key=value scheme: the scheme's row and one
// checked value per parameter.
type generated struct {
	sc *scheme
	v  values
}

// String implements Source.
func (g generated) String() string {
	items := make([]string, len(g.v))
	for i, p := range g.sc.params {
		items[i] = p.key + "=" + p.format(g.v[i])
	}
	return g.sc.name + ":" + strings.Join(items, ",")
}

// Build implements Source.
func (g generated) Build() (System, Hint, error) {
	sys, hint := g.sc.build(g.v)
	return sys, hint, nil
}

// MMSource is the "mm:" scheme: a MatrixMarket file pinned by the FNV-1a 64
// hash of its content. The file is shipped out of band (every member reads
// the same path); the hash is what makes re-tearing provably identical — a
// member whose file differs gets a *HashMismatchError instead of a system.
// The right-hand side is all ones (the CLI convention for systems loaded
// without an explicit rhs).
type MMSource struct {
	Path string
	Hash uint64
}

func parseMM(params string) (Source, error) {
	at := strings.LastIndex(params, "@")
	if at < 0 {
		return nil, fmt.Errorf("mm source wants path@fnv64hash")
	}
	path, hexHash := params[:at], params[at+1:]
	if path == "" {
		return nil, fmt.Errorf("mm source has an empty path")
	}
	if len(hexHash) != 16 {
		return nil, fmt.Errorf("mm hash %q must be exactly 16 hex digits", hexHash)
	}
	h, err := strconv.ParseUint(hexHash, 16, 64)
	if err != nil {
		return nil, fmt.Errorf("mm hash %q: %w", hexHash, err)
	}
	return MMSource{Path: path, Hash: h}, nil
}

// String implements Source.
func (s MMSource) String() string { return fmt.Sprintf("mm:%s@%016x", s.Path, s.Hash) }

// Verify checks, without parsing, that the file hashes to the pinned value:
// a *HashMismatchError when it does not. Build runs the same check first.
func (s MMSource) Verify() error {
	_, err := s.read()
	return err
}

// read returns the file's content once it has checked it against the pin.
func (s MMSource) read() ([]byte, error) {
	data, err := os.ReadFile(s.Path)
	if err != nil {
		return nil, fmt.Errorf("sparse: mm source: %w", err)
	}
	if got := fnv64(data); got != s.Hash {
		return nil, &HashMismatchError{Path: s.Path, Want: s.Hash, Got: got}
	}
	return data, nil
}

// Build implements Source.
func (s MMSource) Build() (System, Hint, error) {
	data, err := s.read()
	if err != nil {
		return System{}, Hint{}, err
	}
	m, err := ReadMatrix(strings.NewReader(string(data)))
	if err != nil {
		return System{}, Hint{}, fmt.Errorf("sparse: mm source %s: %w", s.Path, err)
	}
	b := NewVec(m.Rows())
	b.Fill(1)
	return System{A: m, B: b, Name: fmt.Sprintf("mm-%s-%016x", filepath.Base(s.Path), s.Hash)}, Hint{}, nil
}

// HashFileFNV64 returns the FNV-1a 64 hash of a file's content — the value
// an mm: spec pins. cmd/dtmgen prints it next to every file it writes.
func HashFileFNV64(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return fnv64(data), nil
}

func fnv64(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}
