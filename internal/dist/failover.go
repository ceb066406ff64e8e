package dist

import (
	"errors"
	"fmt"
)

// Failover ownership derivation. The map of epoch e is a pure function of
// (spec hash, home map, alive set): a part whose home owner is alive stays
// home, an orphaned part goes to the alive member that wins a rendezvous
// hash over (spec hash, part, member). Because the function is history-free
// and deterministic, every member that knows the spec and the alive set
// derives the same map — the coordinator broadcasts it only as an
// optimisation — and a rejoining home owner is handed exactly its original
// parts back on the next epoch.

// ErrWorkerLost is the sentinel a *WorkerLostError unwraps to: a worker
// stopped answering past its lease and no failover could absorb the loss
// (no survivors, failover disabled, or the epoch budget exhausted).
var ErrWorkerLost = errors.New("dist: worker lost")

// WorkerLostError names the lost worker and the parts it owned when the
// coordinator gave up on it.
type WorkerLostError struct {
	// Worker is the transport member id of the lost worker.
	Worker int
	// Parts are the parts the worker owned (or was expected to serve) at
	// the time of loss.
	Parts []int
	// Phase is the protocol phase the loss surfaced in: "assign", "ready",
	// "start", "poll", "stop" or "result".
	Phase string
}

func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("dist: worker %d lost during %s (owned parts %v)", e.Worker, e.Phase, e.Parts)
}

func (e *WorkerLostError) Unwrap() error { return ErrWorkerLost }

// lostError builds a WorkerLostError for the given worker under the given
// ownership map.
func lostError(worker int, owner []int, phase string) *WorkerLostError {
	e := &WorkerLostError{Worker: worker, Phase: phase}
	for part, w := range owner {
		if w == worker {
			e.Parts = append(e.Parts, part)
		}
	}
	return e
}

// Hash fingerprints the spec: FNV-1a over its canonical source and topology
// strings plus the tearing shape, so two spellings of the same problem hash
// identically. It seeds the rendezvous ownership derivation and the
// per-worker lease jitter, so two runs of the same spec fail over
// identically. (A spec too malformed to canonicalise folds its raw source
// string instead — still deterministic across members, which is all the
// failover machinery needs.)
func (s *SpecV2) Hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mixString := func(str string) {
		for _, c := range []byte(str) {
			h ^= uint64(c)
			h *= 1099511628211
		}
		h *= 1099511628211 // terminator: "ab"+"c" and "a"+"bc" differ
	}
	src, err := s.SourceString()
	if err != nil {
		src = s.Source
	}
	mixString(src)
	mixString(s.TopologyString())
	mix(uint64(s.NParts))
	mix(uint64(s.PartsX))
	mix(uint64(s.PartsY))
	mix(uint64(int64(s.delayOrDefault() * 1e6)))
	return h
}

// rendezvousScore mixes (spec hash, part, member) into the weight the member
// bids for the part (splitmix64 finalizer — well distributed, deterministic).
func rendezvousScore(specHash uint64, part, member int) uint64 {
	z := specHash ^ (uint64(part)+1)*0x9e3779b97f4a7c15 ^ (uint64(member)+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// DeriveOwner computes the ownership map of a failover/rejoin epoch: part →
// home owner when the home owner is alive, else the rendezvous winner among
// the alive members. alive must be non-empty; ties (never in practice — the
// scores are 64-bit) break toward the smaller member id because alive is
// scanned in ascending order with a strict improvement test.
func DeriveOwner(specHash uint64, home []int, alive []int) []int {
	aliveSet := make(map[int]bool, len(alive))
	for _, w := range alive {
		aliveSet[w] = true
	}
	owner := make([]int, len(home))
	for part, hw := range home {
		if aliveSet[hw] {
			owner[part] = hw
			continue
		}
		best, bestScore := alive[0], uint64(0)
		for _, w := range alive {
			if sc := rendezvousScore(specHash, part, w); sc > bestScore {
				best, bestScore = w, sc
			}
		}
		owner[part] = best
	}
	return owner
}

// jitter01 derives a deterministic value in [0, 1) per (seed, member) — the
// lease jitter, so a uniformly slow fabric does not mass-expire every worker
// at the same instant and a single slow link is not mistaken for death.
func jitter01(seed uint64, member int) float64 {
	return float64(rendezvousScore(seed, member, member)>>11) / float64(1<<53)
}
