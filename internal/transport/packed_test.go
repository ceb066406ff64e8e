package transport

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// packedPair is how the codec is used: Packed fields inside a struct that
// encoding/json marshals.
type packedPair struct {
	F Packed[float64] `json:"f"`
	I Packed[int32]   `json:"i"`
}

// sameBits reports whether a and b hold the same elements bit for bit; nil
// and empty count as equal.
func sameBits(a, b packedPair) bool {
	if len(a.F) != len(b.F) || len(a.I) != len(b.I) {
		return false
	}
	for k := range a.F {
		if math.Float64bits(a.F[k]) != math.Float64bits(b.F[k]) {
			return false
		}
	}
	for k := range a.I {
		if a.I[k] != b.I[k] {
			return false
		}
	}
	return true
}

// TestPackedRoundTrip: every float64 and int32 comes back bit for bit through
// json.Marshal and json.Unmarshal — the values encoding/json's decimal form
// refuses (NaN, ±Inf) or must print with care (−0, subnormals, the extremes)
// among them — and a value that is not a whole packed string is an error.
func TestPackedRoundTrip(t *testing.T) {
	quietNaN, payloadNaN := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000dead01)
	for _, want := range []packedPair{
		{F: Packed[float64]{math.NaN(), quietNaN, payloadNaN, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3},
			I: Packed[int32]{math.MinInt32, math.MaxInt32, 0, -1, 1}},
		{F: Packed[float64]{2.5}, I: Packed[int32]{7}},
		{F: Packed[float64]{}, I: Packed[int32]{}},
		{},
	} {
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("marshal %v: %v", want, err)
		}
		var got packedPair
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s decoded to %v, want %v", b, got, want)
		}
	}
	if b, _ := json.Marshal(packedPair{F: Packed[float64]{1}}); string(b) != `{"f":"AAAAAAAA8D8=","i":""}` {
		t.Fatalf("1.0 encodes as %s, want the base64 of its little-endian bits", b)
	}
	for _, bad := range []string{
		`{"f":[1,2]}`,            // the JSON-array form
		`{"i":[1]}`,              // the JSON-array form
		`{"f":1.5}`,              // a number
		`{"f":{"x":1}}`,          // an object
		`{"f":true}`,             // a bool
		`{"f":"AAAA*AAAAAAA"}`,   // not base64
		`{"f":"AAAAAAAA8D"}`,     // truncated base64
		`{"f":"AAAAAAAA"}`,       // 6 bytes: not a whole float64
		`{"i":"AAAAAAA="}`,       // 5 bytes: not a whole int32
		`{"f":"AAAAAAAA8D8=\u"}`, // a broken escape
	} {
		var got packedPair
		if err := json.Unmarshal([]byte(bad), &got); err == nil {
			t.Errorf("%s decoded to %v, want an error", bad, got)
		}
	}
}

// FuzzPacked: any float64 and int32 elements survive the round trip bit for
// bit, and any JSON value decodes to a Packed or an error — never a panic,
// never a length that is not what the string holds.
func FuzzPacked(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff}, `"AAAAAAAA8D8="`)
	f.Add([]byte{}, `[1,2]`)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xf0, 0x7f}, `"AAAAAAAA"`)
	f.Add([]byte{0, 0, 0, 0x80}, `null`)
	f.Fuzz(func(t *testing.T, raw []byte, value string) {
		want := packedPair{F: make(Packed[float64], len(raw)/8), I: make(Packed[int32], len(raw)/4)}
		binary.Decode(raw, binary.LittleEndian, []float64(want.F))
		binary.Decode(raw, binary.LittleEndian, []int32(want.I))
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got packedPair
		if err := json.Unmarshal(b, &got); err != nil || !sameBits(got, want) {
			t.Fatalf("%s decoded to %v (%v), want %v", b, got, err, want)
		}

		if !json.Valid([]byte(value)) {
			return
		}
		var one struct {
			F Packed[float64] `json:"f"`
		}
		if err := json.Unmarshal([]byte(`{"f":`+value+`}`), &one); err != nil {
			return
		}
		var s string
		if json.Unmarshal([]byte(value), &s) != nil {
			if len(one.F) != 0 { // null leaves the field nil
				t.Fatalf("non-string %s decoded to %d values", value, len(one.F))
			}
			return
		}
		if raw, err := base64.StdEncoding.DecodeString(s); err != nil || len(raw) != 8*len(one.F) {
			t.Fatalf("%s decoded to %d values from %d bytes (%v)", value, len(one.F), len(raw), err)
		}
	})
}
