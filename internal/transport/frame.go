package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Wire format. Every packet travels as one length-prefixed frame:
//
//	uint32  payload length (little-endian, excludes the prefix itself)
//	uint8   version (frameVersion; mismatches are rejected on decode)
//	uint8   kind
//	int32   from (member id)
//	int32   fromPart
//	int32   toPart
//	uint64  seq
//	uint32  epoch
//	uint32  inc (sender incarnation)
//	uint32  nEntries
//	nEntries × { int32 linkID, float64 wave }   (IEEE-754 bits, little-endian)
//	uint32  ctrlLen
//	ctrlLen × byte
//
// Everything is little-endian and fixed-width: the format needs no schema
// negotiation, decodes with zero reflection, and a wave entry is exactly 12
// bytes. The leading version byte is the compatibility discriminator: the
// layout has no self-describing structure, so a peer built against a
// different layout would silently misparse every field after the first that
// moved — instead a mismatched fleet fails fast, on the first frame, with an
// explicit version error. Bump frameVersion whenever the layout changes.
// maxFrame bounds a frame at 16 MiB so a corrupt or hostile length prefix
// cannot make the reader allocate unboundedly; the TCP Send refuses to write
// a larger one (ErrFrameTooLarge).

const (
	// frameVersion 2: version byte introduced together with the failover
	// fields (epoch, inc); version 1 is the implicit pre-failover layout,
	// which had no version byte at all. Version 3 keeps the layout and
	// changes the control payload: its problem-sized vectors travel as
	// base64 strings of their little-endian bytes, not JSON arrays, which a
	// version-2 peer would read as a bad control frame on every status and
	// never finish a poll round.
	// Version 4 keeps the layout again: an assign names the factor ordering
	// beside the backend, which a version-3 worker would drop, factorising
	// under auto. Version 5 keeps the layout: a result carries the
	// session's work counters, which a version-4 worker omits. Version 6
	// keeps the layout and replaces the control payload's JSON with dist's
	// fixed-order binary form, which a version-5 peer cannot parse.
	frameVersion = 6
	frameHeader  = 1 + 1 + 4 + 4 + 4 + 8 + 4 + 4 + 4 // version..nEntries
	entrySize    = 4 + 8
	maxFrame     = 16 << 20
)

// payloadLen is the length of pkt's frame without its length prefix — the
// number a frameReader holds against maxFrame.
func payloadLen(pkt *Packet) int {
	return frameHeader + len(pkt.Entries)*entrySize + 4 + len(pkt.Ctrl)
}

// appendPacket encodes pkt as one frame (length prefix included) onto buf.
func appendPacket(buf []byte, pkt *Packet) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen(pkt)))
	buf = append(buf, frameVersion, byte(pkt.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pkt.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pkt.FromPart))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pkt.ToPart))
	buf = binary.LittleEndian.AppendUint64(buf, pkt.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, pkt.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, pkt.Inc)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pkt.Entries)))
	for _, e := range pkt.Entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.LinkID))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Wave))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pkt.Ctrl)))
	buf = append(buf, pkt.Ctrl...)
	return buf
}

// decodePacket decodes one frame payload (length prefix already stripped).
func decodePacket(payload []byte) (Packet, error) {
	var pkt Packet
	if len(payload) == 0 {
		return pkt, fmt.Errorf("transport: empty frame")
	}
	if v := payload[0]; v != frameVersion {
		return pkt, fmt.Errorf("transport: frame version %d, want %d (mixed dtmd versions on the fabric?)", v, frameVersion)
	}
	if len(payload) < frameHeader+4 {
		return pkt, fmt.Errorf("transport: short frame (%d bytes)", len(payload))
	}
	pkt.Kind = Kind(payload[1])
	pkt.From = int32(binary.LittleEndian.Uint32(payload[2:]))
	pkt.FromPart = int32(binary.LittleEndian.Uint32(payload[6:]))
	pkt.ToPart = int32(binary.LittleEndian.Uint32(payload[10:]))
	pkt.Seq = binary.LittleEndian.Uint64(payload[14:])
	pkt.Epoch = binary.LittleEndian.Uint32(payload[22:])
	pkt.Inc = binary.LittleEndian.Uint32(payload[26:])
	n := int(binary.LittleEndian.Uint32(payload[30:]))
	off := frameHeader
	if n < 0 || len(payload) < off+n*entrySize+4 {
		return pkt, fmt.Errorf("transport: frame truncated (%d entries, %d bytes)", n, len(payload))
	}
	if n > 0 {
		pkt.Entries = make([]WaveEntry, n)
		for i := range pkt.Entries {
			pkt.Entries[i].LinkID = int32(binary.LittleEndian.Uint32(payload[off:]))
			pkt.Entries[i].Wave = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+4:]))
			off += entrySize
		}
	}
	cl := int(binary.LittleEndian.Uint32(payload[off:]))
	off += 4
	if cl < 0 || len(payload) < off+cl {
		return pkt, fmt.Errorf("transport: frame truncated (ctrl %d bytes, %d left)", cl, len(payload)-off)
	}
	if cl > 0 {
		pkt.Ctrl = append([]byte(nil), payload[off:off+cl]...)
	}
	return pkt, nil
}

// frameReader decodes the frame stream of one connection. Each read takes
// whatever the socket holds into one buffer, which starts at
// frameReadBuffer bytes and grows to the largest frame seen, and next then
// decodes the complete frames there one by one before it reads again.
type frameReader struct {
	r          io.Reader
	buf        []byte
	head, tail int   // buf[head:tail] is read and not yet decoded
	err        error // the read error to return once buf holds no complete frame
}

// frameReadBuffer is a connection's initial read buffer: a burst of small
// wave frames fits, and a reader that only ever sees those allocates no more.
const frameReadBuffer = 512

// next returns the stream's next packet. A length prefix above maxFrame is
// an error before anything is allocated for it, as is a frame that does not
// decode; either ends the stream.
func (f *frameReader) next() (Packet, error) {
	if f.buf == nil {
		f.buf = make([]byte, frameReadBuffer)
	}
	for {
		if f.head == f.tail {
			f.head, f.tail = 0, 0
		}
		avail := f.buf[f.head:f.tail]
		need := 4
		if len(avail) >= 4 {
			n := binary.LittleEndian.Uint32(avail)
			if n > maxFrame {
				return Packet{}, fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
			}
			need += int(n)
			if len(avail) >= need {
				f.head += need
				return decodePacket(avail[4:need])
			}
		}
		if f.err != nil {
			return Packet{}, f.err
		}
		if f.head+need > len(f.buf) {
			if need > len(f.buf) {
				f.buf = make([]byte, need)
			}
			f.tail = copy(f.buf, avail)
			f.head = 0
		}
		k, err := f.r.Read(f.buf[f.tail:])
		f.tail += k
		f.err = err
	}
}
