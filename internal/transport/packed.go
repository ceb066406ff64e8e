package transport

import (
	"encoding"
	"encoding/base64"
	"encoding/binary"
	"fmt"
)

// Packed is a slice that crosses a JSON control message as one string: the
// standard base64 of its elements' little-endian bytes, the layout wave
// entries use. Values round-trip bit for bit — NaN payloads, ±Inf and
// subnormals included, which encoding/json's decimal form refuses or rounds —
// and a decoder reads them with no float parsing. nil and empty both encode
// as "" and decode to nil.
//
// The methods are MarshalText and UnmarshalText, not the JSON pair: the
// encoder copies text into its buffer with one escape check, whereas it
// re-scans and compacts whatever MarshalJSON returns.
type Packed[T float64 | int32] []T

var (
	_ encoding.TextMarshaler   = Packed[float64](nil)
	_ encoding.TextUnmarshaler = (*Packed[int32])(nil)
)

// MarshalText implements encoding.TextMarshaler.
func (p Packed[T]) MarshalText() ([]byte, error) {
	raw, err := binary.Append(nil, binary.LittleEndian, []T(p))
	if err != nil {
		return nil, err
	}
	return base64.StdEncoding.AppendEncode(nil, raw), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. It refuses bad base64
// and a byte count that is not a whole number of elements.
func (p *Packed[T]) UnmarshalText(text []byte) error {
	raw, err := base64.StdEncoding.AppendDecode(nil, text)
	if err != nil {
		return fmt.Errorf("transport: packed %T: %w", *p, err)
	}
	size := binary.Size(T(0))
	if len(raw)%size != 0 {
		return fmt.Errorf("transport: packed %T: %d bytes is not a whole number of %d-byte elements", *p, len(raw), size)
	}
	if len(raw) == 0 {
		*p = nil
		return nil
	}
	out := make([]T, len(raw)/size)
	if _, err := binary.Decode(raw, binary.LittleEndian, out); err != nil {
		return fmt.Errorf("transport: packed %T: %w", *p, err)
	}
	*p = out
	return nil
}
