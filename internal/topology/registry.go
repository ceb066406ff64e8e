package topology

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the machine-topology registry: the named, string-addressable
// counterpart of the problem-source registry in internal/sparse. A topology
// spec is either a bare registered name ("uniform", "ring", "mesh4x4",
// "mesh8x8", "torus") or a parameterised form "scheme:key=value,key=value,..."
// ("yao:n=4,k=6,seed=1"). dist.SpecV2 carries the spec string on the wire
// and every fleet member resolves it through the same registry, so the
// machine a problem is torn for is as reproducible as the problem itself.

// buildFunc builds a topology from the parameter part of a spec string
// (empty for bare names). n is the number of processors the caller needs —
// fabrics without an intrinsic size (uniform, ring, torus, yao) are sized to
// it — and delay is the caller's default link delay for fabrics that take
// one.
type buildFunc func(params string, n int, delay float64) (*Topology, error)

// fixed adapts a fabric that takes no parameters.
func fixed(build func(n int, delay float64) *Topology) buildFunc {
	return func(params string, n int, delay float64) (*Topology, error) {
		if params != "" {
			return nil, fmt.Errorf("takes no parameters, got %q", params)
		}
		return build(n, delay), nil
	}
}

// MaxProcessors bounds the processor count every caller asks for and every
// fabric sized by it builds: the count arrives from outside — a CLI flag, a
// spec on the dist wire — and a Topology holds a dense n×n delay table
// (32 MiB at the limit).
const MaxProcessors = 1 << 11

// DefaultDelay is the link delay of the sized fabrics when the caller names
// none: the CLIs' default and dist.SpecV2's.
const DefaultDelay = 10

// topologies is the registry.
var topologies = map[string]buildFunc{
	"uniform": fixed(func(n int, delay float64) *Topology { return Uniform(n, delay, "uniform") }),
	"ring":    fixed(Ring),
	"mesh4x4": fixed(func(int, float64) *Topology { return Mesh4x4Paper() }),
	"mesh8x8": fixed(func(int, float64) *Topology { return Mesh8x8Paper() }),
	// The smallest square torus with n processors, its directed link delays
	// uniform in [10, 99] like the paper's meshes (fixed seed).
	"torus": func(params string, n int, _ float64) (*Topology, error) {
		side := 2
		for side*side < n {
			side++
		}
		if side*side > MaxProcessors {
			return nil, fmt.Errorf("the smallest square torus of %d processors has %d, more than %d", n, side*side, MaxProcessors)
		}
		return fixed(func(int, float64) *Topology {
			return TorusUniformRandom(side, side, 10, 99, 1, fmt.Sprintf("torus %dx%d", side, side))
		})(params, n, 0)
	},
	"yao": func(params string, n int, delay float64) (*Topology, error) {
		size, k, seed := int64(n), int64(6), int64(1)
		err := parseKVInt64(params, map[string]*int64{"n": &size, "k": &k, "seed": &seed})
		if err != nil {
			return nil, err
		}
		if size < 1 || size > MaxProcessors {
			return nil, fmt.Errorf("yao n must be in [1,%d], got %d", MaxProcessors, size)
		}
		if k < 1 || k > 64 {
			return nil, fmt.Errorf("yao needs 1 <= k <= 64 cones, got %d", k)
		}
		return YaoMesh(int(size), int(k), seed, delay), nil
	},
}

// RegisteredTopologies returns the registered spec scheme names, sorted.
func RegisteredTopologies() []string {
	names := make([]string, 0, len(topologies))
	for name := range topologies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseTopology resolves a topology spec string into a machine. The empty
// string means "uniform". n and delay are the caller's processor count and
// default link delay (see buildFunc); an n outside [1, MaxProcessors] and a
// delay that is not positive and finite are refused.
func ParseTopology(spec string, n int, delay float64) (*Topology, error) {
	if n < 1 || n > MaxProcessors || !(delay > 0) || math.IsInf(delay, 1) {
		return nil, fmt.Errorf("topology: spec %q: needs n in [1,%d] and a positive, finite delay, got n=%d and delay %g", spec, MaxProcessors, n, delay)
	}
	scheme, params, _ := strings.Cut(spec, ":")
	scheme = strings.TrimSpace(scheme)
	if scheme == "" {
		scheme = "uniform"
	}
	build, ok := topologies[scheme]
	if !ok {
		return nil, fmt.Errorf("topology: unknown topology %q (have %s)",
			spec, strings.Join(RegisteredTopologies(), ", "))
	}
	t, err := build(strings.TrimSpace(params), n, delay)
	if err != nil {
		return nil, fmt.Errorf("topology: spec %q: %w", spec, err)
	}
	return t, nil
}

// parseKVInt64 parses a "key=value,key=value" parameter list whose values
// are integers, rejecting unknown keys. Missing keys keep their defaults.
func parseKVInt64(params string, fields map[string]*int64) error {
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
		dst, known := fields[strings.TrimSpace(key)]
		if !known {
			keys := make([]string, 0, len(fields))
			for k := range fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return fmt.Errorf("unknown parameter %q (have %s)", key, strings.Join(keys, ", "))
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return fmt.Errorf("parameter %q: %w", item, err)
		}
		*dst = v
	}
	return nil
}
