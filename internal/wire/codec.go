package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// Encoder appends length-prefixed primitive fields to Buf. It never
// fails: the only error source in encoding is an unregistered payload,
// handled at the registry layer. The zero Encoder is ready to use.
type Encoder struct {
	Buf []byte
}

// Byte appends one raw byte.
func (e *Encoder) Byte(v byte) { e.Buf = append(e.Buf, v) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(v int64) { e.Buf = binary.AppendVarint(e.Buf, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Buf = append(e.Buf, 1)
	} else {
		e.Buf = append(e.Buf, 0)
	}
}

// Float64 appends the IEEE 754 bit pattern, little-endian, 8 bytes.
// Varints would corrupt NaN payloads and save nothing on real readings.
func (e *Encoder) Float64(v float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v))
}

// String appends a uvarint length prefix and the bytes.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Bytes appends a uvarint length prefix and the bytes.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

// ErrTruncated reports a frame that ended mid-field.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrMalformed reports a field that cannot be parsed (overlong varint,
// length prefix past the end of the frame).
var ErrMalformed = errors.New("wire: malformed field")

// Decoder reads fields written by Encoder. It is error-sticky: after
// the first failure every read returns a zero value and Err stays set,
// so payload decoders can read all fields and check Err once. It never
// panics on malformed input.
type Decoder struct {
	Buf []byte
	Off int
	Err error
}

func (d *Decoder) fail(err error) {
	if d.Err == nil {
		d.Err = err
	}
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.Err != nil {
		return 0
	}
	if d.Off >= len(d.Buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.Buf[d.Off]
	d.Off++
	return v
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.Buf[d.Off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(ErrMalformed)
		}
		return 0
	}
	d.Off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.Buf[d.Off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(ErrMalformed)
		}
		return 0
	}
	d.Off += n
	return v
}

// Bool reads a one-byte bool. Any nonzero byte is true.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Float64 reads an 8-byte IEEE 754 value.
func (d *Decoder) Float64() float64 {
	if d.Err != nil {
		return 0
	}
	if d.Off+8 > len(d.Buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.Buf[d.Off:])
	d.Off += 8
	return math.Float64frombits(v)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	b := d.View()
	if len(b) == 0 {
		return ""
	}
	return string(b)
}

// InternedString reads a length-prefixed string through the intern
// table (see Intern): for fields whose values repeat from datagram to
// datagram — message types, peer addresses, attribute names.
func (d *Decoder) InternedString() string { return Intern(d.View()) }

// Bytes reads a length-prefixed byte slice (copied out of the frame;
// nil when empty).
func (d *Decoder) Bytes() []byte {
	b := d.View()
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// View returns the next length-prefixed region of the frame without
// copying: it aliases Buf, which the transport reuses for the next
// datagram, so a caller keeps only what it copies out.
func (d *Decoder) View() []byte {
	n := d.Uvarint()
	if d.Err != nil {
		return nil
	}
	if n > uint64(len(d.Buf)-d.Off) {
		d.fail(ErrMalformed)
		return nil
	}
	b := d.Buf[d.Off : d.Off+int(n)]
	d.Off += int(n)
	return b
}
