package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
)

// The wire format of a cross-node edge. Everything is little-endian and
// fixed-width, so a frame's length follows from its 8-byte header and a
// reader never has to trust a byte count it cannot bound:
//
//	handshake (writer -> reader, once per connection)
//	  u32 magic | u32 from station | u32 target station | u32 credit window
//	ack (reader -> writer, first as the handshake reply)
//	  u64 tuples of this edge admitted to the target inbox, cumulative
//	  over the edge's lifetime (not the connection's)
//	frame (writer -> reader)
//	  u32 tuples n | u32 fields f, summed over the frame
//	  n x ( u64 Key | u64 Seq | i64 Port | u32 fields | fields x u64 float64 bits )
//
// A reader accepts n only up to the window the handshake negotiated and f
// only up to n x maxTupleFields, so a hostile header is rejected before
// anything is allocated for it.
const (
	wireMagic      = 0x31465353 // "SSF1"
	handshakeLen   = 16
	ackLen         = 8
	frameHeaderLen = 8
	tupleHeaderLen = 28
	// maxTupleFields bounds one tuple's payload (32 KiB of float64s); the
	// writer sheds a wider tuple instead of framing it.
	maxTupleFields = 1 << 12
)

var errBadFrame = errors.New("runtime: malformed wire frame")

// appendHandshake encodes the stream-opening message of edge from -> target.
func appendHandshake(buf []byte, from, target plan.StationID, window int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, wireMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(target))
	return binary.LittleEndian.AppendUint32(buf, uint32(window))
}

// readHandshake decodes the stream-opening message.
func readHandshake(r io.Reader) (from, target plan.StationID, window int, err error) {
	var b [handshakeLen]byte
	if _, err = io.ReadFull(r, b[:]); err != nil {
		return 0, 0, 0, err
	}
	if binary.LittleEndian.Uint32(b[0:]) != wireMagic {
		return 0, 0, 0, fmt.Errorf("runtime: bad handshake magic %#x", binary.LittleEndian.Uint32(b[0:]))
	}
	from = plan.StationID(binary.LittleEndian.Uint32(b[4:]))
	target = plan.StationID(binary.LittleEndian.Uint32(b[8:]))
	return from, target, int(binary.LittleEndian.Uint32(b[12:])), nil
}

// appendFrame encodes the longest prefix of ts that fits one frame — all
// of it unless a tuple is wider than maxTupleFields — into buf's storage
// (pass buf[:0] to reuse it), and reports how many tuples that is. The
// caller keeps len(ts) within the credit window.
func appendFrame(buf []byte, ts []operators.Tuple) ([]byte, int) {
	fields := 0
	for i := range ts {
		if len(ts[i].Fields) > maxTupleFields {
			ts = ts[:i]
			break
		}
		fields += len(ts[i].Fields)
	}
	size := frameHeaderLen + len(ts)*tupleHeaderLen + fields*8
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	b := buf
	binary.LittleEndian.PutUint32(b[0:], uint32(len(ts)))
	binary.LittleEndian.PutUint32(b[4:], uint32(fields))
	b = b[frameHeaderLen:]
	for i := range ts {
		t := &ts[i]
		binary.LittleEndian.PutUint64(b[0:], t.Key)
		binary.LittleEndian.PutUint64(b[8:], t.Seq)
		binary.LittleEndian.PutUint64(b[16:], uint64(int64(t.Port)))
		binary.LittleEndian.PutUint32(b[24:], uint32(len(t.Fields)))
		b = b[tupleHeaderLen:]
		for _, f := range t.Fields {
			binary.LittleEndian.PutUint64(b, math.Float64bits(f))
			b = b[8:]
		}
	}
	return buf, len(ts)
}

// frameReader decodes the frames of one connection. The batch it returns
// and its byte buffer are reused from frame to frame; the tuples' Fields
// are cut from one arena allocated per frame, because they outlive the
// call inside whatever mailbox admits them.
type frameReader struct {
	r      io.Reader
	window int
	buf    []byte
	batch  []operators.Tuple
}

// next reads one whole frame and returns its tuples, valid until the next
// call. A truncated, oversized or inconsistent frame yields an error and
// no tuples at all.
func (fr *frameReader) next() ([]operators.Tuple, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:]))
	fields := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n == 0 || n > fr.window || uint64(fields) > uint64(n)*maxTupleFields {
		return nil, errBadFrame
	}
	size := n*tupleHeaderLen + fields*8
	if cap(fr.buf) < size {
		fr.buf = make([]byte, size)
	}
	b := fr.buf[:size]
	if _, err := io.ReadFull(fr.r, b); err != nil {
		return nil, err
	}
	if cap(fr.batch) < n {
		fr.batch = make([]operators.Tuple, n)
	}
	batch := fr.batch[:n]
	var arena []float64
	if fields > 0 {
		arena = make([]float64, fields)
	}
	for i := range batch {
		nf := int(binary.LittleEndian.Uint32(b[24:]))
		if nf > maxTupleFields || nf > len(arena) {
			return nil, errBadFrame
		}
		t := &batch[i]
		t.Key = binary.LittleEndian.Uint64(b[0:])
		t.Seq = binary.LittleEndian.Uint64(b[8:])
		t.Port = int(int64(binary.LittleEndian.Uint64(b[16:])))
		b = b[tupleHeaderLen:]
		// Capacity is clipped so an operator appending to one tuple's
		// Fields cannot write into its neighbour's.
		t.Fields = arena[:nf:nf]
		arena = arena[nf:]
		for j := range t.Fields {
			t.Fields[j] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	if len(arena) != 0 {
		return nil, errBadFrame
	}
	return batch, nil
}
