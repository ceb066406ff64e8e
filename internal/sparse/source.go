package sparse

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the problem-source registry: named, string-addressable,
// deterministic builders of the systems DTM tears. A source spec is
// "scheme:params" — "grid:rows=33,cols=33,seed=1089",
// "saddle:nx=16,ny=16,gamma=0.01", "spanner:n=400,k=6,seed=7,leak=0.05", or
// "mm:/path/to/A.mtx@<fnv64 hash>" — and Source.String() renders the
// canonical form (keys in fixed order, values normalised), so
// ParseSource(src.String()) reproduces src exactly, like chaos.Spec. The
// canonical string is what dist.SpecV2 carries on the wire and folds into
// its hash: every fleet member that resolves the same string provably
// builds, and therefore tears, the same system.

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
	// Name returns the scheme name ("grid", "saddle", "spanner", "mm").
	Name() string
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

// parseSourceFunc parses the parameter part of a spec (after "scheme:").
type parseSourceFunc func(params string) (Source, error)

var sourceRegistry = map[string]parseSourceFunc{}

// RegisterSource adds a source scheme to the registry. It panics on a
// duplicate (registration is an init-time affair).
func RegisterSource(scheme string, parse parseSourceFunc) {
	if _, dup := sourceRegistry[scheme]; dup {
		panic(fmt.Sprintf("sparse: duplicate source scheme %q", scheme))
	}
	sourceRegistry[scheme] = parse
}

// RegisteredSources returns the registered scheme names, sorted.
func RegisteredSources() []string {
	names := make([]string, 0, len(sourceRegistry))
	for name := range sourceRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseSource parses a source spec string into a validated Source.
func ParseSource(spec string) (Source, error) {
	scheme, params, ok := strings.Cut(spec, ":")
	scheme = strings.TrimSpace(scheme)
	if !ok || scheme == "" {
		return nil, fmt.Errorf("sparse: source spec %q is not scheme:params (have %s)",
			spec, strings.Join(RegisteredSources(), ", "))
	}
	parse, known := sourceRegistry[scheme]
	if !known {
		return nil, fmt.Errorf("sparse: unknown source scheme %q (have %s)",
			scheme, strings.Join(RegisteredSources(), ", "))
	}
	src, err := parse(strings.TrimSpace(params))
	if err != nil {
		return nil, fmt.Errorf("sparse: source spec %q: %w", spec, err)
	}
	return src, nil
}

// kvField is one key of a source parameter list.
type kvField struct {
	set func(string) error
}

// parseSourceKV parses "key=value,key=value,..." against the allowed keys.
// Missing keys keep their defaults; unknown keys are rejected.
func parseSourceKV(params string, fields map[string]kvField) error {
	if params == "" {
		return nil
	}
	for _, item := range strings.Split(params, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("parameter %q is not key=value", item)
		}
		f, known := fields[strings.TrimSpace(key)]
		if !known {
			keys := make([]string, 0, len(fields))
			for k := range fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return fmt.Errorf("unknown parameter %q (have %s)", key, strings.Join(keys, ", "))
		}
		if err := f.set(strings.TrimSpace(val)); err != nil {
			return fmt.Errorf("parameter %q: %w", item, err)
		}
	}
	return nil
}

func intField(dst *int, lo, hi int) kvField {
	return kvField{set: func(s string) error {
		v, err := strconv.Atoi(s)
		if err != nil {
			return err
		}
		if v < lo || v > hi {
			return fmt.Errorf("value %d out of range [%d,%d]", v, lo, hi)
		}
		*dst = v
		return nil
	}}
}

func int64Field(dst *int64) kvField {
	return kvField{set: func(s string) error {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return err
		}
		*dst = v
		return nil
	}}
}

func floatField(dst *float64, lo, hi float64) kvField {
	return kvField{set: func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		if !(v >= lo && v <= hi) { // also rejects NaN
			return fmt.Errorf("value %g out of range [%g,%g]", v, lo, hi)
		}
		*dst = v
		return nil
	}}
}

// formatFloat renders a float the way the canonical strings want it:
// shortest representation that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// GridSource is the "grid:" scheme: the random grid-pattern SPD system of
// RandomGridSPD, the paper's synthetic workload.
type GridSource struct {
	Rows, Cols int
	Seed       int64
}

// Name implements Source.
func (s GridSource) Name() string { return "grid" }

// String implements Source.
func (s GridSource) String() string {
	return fmt.Sprintf("grid:rows=%d,cols=%d,seed=%d", s.Rows, s.Cols, s.Seed)
}

// Build implements Source.
func (s GridSource) Build() (System, Hint, error) {
	if err := s.validate(); err != nil {
		return System{}, Hint{}, err
	}
	return RandomGridSPD(s.Rows, s.Cols, s.Seed), Hint{Grid: true, NX: s.Rows, NY: s.Cols}, nil
}

func (s GridSource) validate() error {
	if s.Rows < 1 || s.Cols < 1 || s.Rows > maxSide || s.Cols > maxSide || s.Rows*s.Cols > maxUnknowns {
		return fmt.Errorf("grid dimensions %dx%d out of range (sides in [1,%d], at most %d unknowns)",
			s.Rows, s.Cols, maxSide, maxUnknowns)
	}
	return nil
}

// SaddleSource is the "saddle:" scheme: the symmetric quasi-definite
// saddle-point system of SaddlePoisson2D — indefinite and irregular (its
// multiplier rows have degree nx), the non-SPD workload.
type SaddleSource struct {
	NX, NY int
	Gamma  float64
}

// Name implements Source.
func (s SaddleSource) Name() string { return "saddle" }

// String implements Source.
func (s SaddleSource) String() string {
	return fmt.Sprintf("saddle:nx=%d,ny=%d,gamma=%s", s.NX, s.NY, formatFloat(s.Gamma))
}

// Build implements Source.
func (s SaddleSource) Build() (System, Hint, error) {
	if err := s.validate(); err != nil {
		return System{}, Hint{}, err
	}
	return SaddlePoisson2D(s.NX, s.NY, s.Gamma), Hint{}, nil
}

func (s SaddleSource) validate() error {
	if s.NX < 1 || s.NY < 1 || s.NX > maxSide || s.NY > maxSide || s.NX*s.NY > maxUnknowns {
		return fmt.Errorf("saddle dimensions %dx%d out of range (sides in [1,%d], at most %d unknowns)",
			s.NX, s.NY, maxSide, maxUnknowns)
	}
	if !(s.Gamma > 0) || s.Gamma > 1e6 {
		return fmt.Errorf("saddle gamma must be in (0,1e6], got %g", s.Gamma)
	}
	return nil
}

// SpannerSource is the "spanner:" scheme: the Yao-spanner Laplacian of
// YaoSpannerLaplacian — an irregular, bounded-Yao-degree geometric graph.
type SpannerSource struct {
	N, K int
	Seed int64
	Leak float64
}

// Name implements Source.
func (s SpannerSource) Name() string { return "spanner" }

// String implements Source.
func (s SpannerSource) String() string {
	return fmt.Sprintf("spanner:n=%d,k=%d,seed=%d,leak=%s", s.N, s.K, s.Seed, formatFloat(s.Leak))
}

// Build implements Source.
func (s SpannerSource) Build() (System, Hint, error) {
	if err := s.validate(); err != nil {
		return System{}, Hint{}, err
	}
	return YaoSpannerLaplacian(s.N, s.K, s.Seed, s.Leak), Hint{}, nil
}

func (s SpannerSource) validate() error {
	if s.N < 1 || s.N > maxUnknowns {
		return fmt.Errorf("spanner n must be in [1,%d], got %d", maxUnknowns, s.N)
	}
	if s.K < 1 || s.K > 64 {
		return fmt.Errorf("spanner k must be in [1,64], got %d", s.K)
	}
	if !(s.Leak > 0) || s.Leak > 1e6 {
		return fmt.Errorf("spanner leak must be in (0,1e6], got %g", s.Leak)
	}
	return nil
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

// Name implements Source.
func (s MMSource) Name() string { return "mm" }

// String implements Source.
func (s MMSource) String() string {
	return fmt.Sprintf("mm:%s@%016x", s.Path, s.Hash)
}

// Build implements Source.
func (s MMSource) Build() (System, Hint, error) {
	data, err := os.ReadFile(s.Path)
	if err != nil {
		return System{}, Hint{}, fmt.Errorf("sparse: mm source: %w", err)
	}
	if got := fnv64(data); got != s.Hash {
		return System{}, Hint{}, &HashMismatchError{Path: s.Path, Want: s.Hash, Got: got}
	}
	m, err := ReadMatrix(strings.NewReader(string(data)))
	if err != nil {
		return System{}, Hint{}, fmt.Errorf("sparse: mm source %s: %w", s.Path, err)
	}
	b := NewVec(m.Rows())
	for i := range b {
		b[i] = 1
	}
	name := fmt.Sprintf("mm-%s-%016x", filepath.Base(s.Path), s.Hash)
	return System{A: m, B: b, Name: name}, Hint{}, nil
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

const (
	// maxSide and maxUnknowns bound generated problem sizes so a hostile
	// spec string cannot request a multi-terabyte build.
	maxSide     = 1 << 16
	maxUnknowns = 1 << 24
)

func init() {
	RegisterSource("grid", func(params string) (Source, error) {
		s := GridSource{Rows: 17, Cols: 17, Seed: 1}
		err := parseSourceKV(params, map[string]kvField{
			"rows": intField(&s.Rows, 1, maxSide),
			"cols": intField(&s.Cols, 1, maxSide),
			"seed": int64Field(&s.Seed),
		})
		if err != nil {
			return nil, err
		}
		return s, s.validate()
	})
	RegisterSource("saddle", func(params string) (Source, error) {
		s := SaddleSource{NX: 16, NY: 16, Gamma: 0.01}
		err := parseSourceKV(params, map[string]kvField{
			"nx":    intField(&s.NX, 1, maxSide),
			"ny":    intField(&s.NY, 1, maxSide),
			"gamma": floatField(&s.Gamma, 1e-12, 1e6),
		})
		if err != nil {
			return nil, err
		}
		return s, s.validate()
	})
	RegisterSource("spanner", func(params string) (Source, error) {
		s := SpannerSource{N: 289, K: 6, Seed: 1, Leak: 0.05}
		err := parseSourceKV(params, map[string]kvField{
			"n":    intField(&s.N, 1, maxUnknowns),
			"k":    intField(&s.K, 1, 64),
			"seed": int64Field(&s.Seed),
			"leak": floatField(&s.Leak, 1e-12, 1e6),
		})
		if err != nil {
			return nil, err
		}
		return s, s.validate()
	})
	RegisterSource("mm", func(params string) (Source, error) {
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
	})
}
