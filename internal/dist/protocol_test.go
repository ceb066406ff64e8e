package dist

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// bigblockCtrl returns the two control messages of a bigblock-grid65 session
// whose bytes grow with the problem, as worker 1 of 2 sends them: its result
// (every owner entry of parts 0 and 1, ≈ 2 100) and a status of those two
// parts (their port potentials and cross-worker pair frontiers). Values are
// full-precision, as a converged solve's are.
func bigblockCtrl(tb testing.TB) []struct {
	name string
	m    *ctrlMsg
} {
	tb.Helper()
	p, err := gatedSpecs[1].spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	res := &resultMsg{}
	st := &statusMsg{Epoch: 1}
	st.Solves, st.Messages = 190, 450
	owner, adjacent := p.OwnerPairs(), p.Partition.AdjacentParts()
	for _, part := range []int{0, 1} {
		for _, pair := range owner[part] {
			res.Index = append(res.Index, int32(pair[1]))
			res.Value = append(res.Value, rng.NormFloat64())
		}
		ports := make([]float64, p.Partition.Subdomains[part].NumPorts)
		for i := range ports {
			ports[i] = rng.NormFloat64()
		}
		st.Parts = append(st.Parts, core.PartState{Part: int32(part), SolvedOnce: true, LastChange: 1e-10 * rng.Float64(), Ports: ports})
		for _, remote := range adjacent[part] {
			if remote >= 2 {
				st.Needed = append(st.Needed, core.PairSeq{From: int32(part), To: int32(remote), Seq: 60})
				st.Applied = append(st.Applied, core.PairSeq{From: int32(remote), To: int32(part), Seq: 58})
			}
		}
	}
	return []struct {
		name string
		m    *ctrlMsg
	}{
		{"result", &ctrlMsg{Type: msgResult, Result: res}},
		{"status", &ctrlMsg{Type: msgStatus, Round: 12, Status: st}},
	}
}

// BenchmarkCtrlCodec times the coordinator's share of the control plane on
// bigblock-grid65: encoding (the worker's side) and decoding (the
// coordinator's) of one result and one status, and reports each frame's size.
func BenchmarkCtrlCodec(b *testing.B) {
	for _, tc := range bigblockCtrl(b) {
		ctrl, err := json.Marshal(tc.m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(ctrl)), "B/frame")
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(tc.m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(ctrl)), "B/frame")
			pkt := transport.Packet{Kind: transport.KindControl, Ctrl: ctrl}
			for i := 0; i < b.N; i++ {
				if _, err := decodeCtrl(&pkt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCtrlCodecAllocations holds BenchmarkCtrlCodec's messages to their
// allocation ceilings, about twice what encoding and decoding one allocates
// (result 5 and 13, status 5 and 23). Decoding the vectors from JSON
// arrays, which grow element by element, takes 37 and 36. The race
// detector's instrumentation allocates more (result encoding 14, status 18),
// so the ceilings hold only in builds without it.
func TestCtrlCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings hold only without the race detector")
	}
	ceilings := map[string][2]float64{"result": {10, 26}, "status": {10, 46}}
	for _, tc := range bigblockCtrl(t) {
		ctrl, err := json.Marshal(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		pkt := transport.Packet{Kind: transport.KindControl, Ctrl: ctrl}
		enc := testing.AllocsPerRun(5, func() { _, _ = json.Marshal(tc.m) })
		dec := testing.AllocsPerRun(5, func() { _, _ = decodeCtrl(&pkt) })
		if limit := ceilings[tc.name]; enc > limit[0] || dec > limit[1] {
			t.Errorf("%s: encoding allocates %.0f objects and decoding %.0f, want <= %.0f and %.0f", tc.name, enc, dec, limit[0], limit[1])
		}
	}
}
