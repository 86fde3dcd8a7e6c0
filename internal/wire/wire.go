// Package wire is the compact, versioned binary codec for the UDP
// transport (DESIGN.md §11) — the only codec: no reflection, no type
// descriptors on the wire, no per-send encoder.
//
// The codec is split in two layers:
//
//   - the envelope: a fixed header (magic, version, kind, sequence
//     number) followed by length-prefixed Type/From strings and the
//     payload — hand-written, no reflection;
//   - the payload: a registry of protocol message types, each with a
//     one-byte code and hand-written, length-prefixed field encoders
//     (Register). An unregistered payload does not encode
//     (ErrUnregistered); the wirereg datlint analyzer keeps that
//     statically unreachable.
//
// A frame that does not open with the magic byte, names a newer
// version, or carries an unknown payload code is malformed: Decode
// returns an error and the transport drops and counts it.
//
// Only the socket transport serializes: SimNetwork hands the payload
// values over untouched, so the simulation path (and every datcheck
// trace) never touches this package's envelope.
package wire

import (
	"errors"
	"fmt"
	"sync"
)

// Frame layout constants.
const (
	// Magic is the first byte of every frame; anything else is dropped
	// unparsed.
	Magic byte = 0xDA
	// Version is the current envelope layout version. Decoders reject
	// frames with a newer version rather than misparse them.
	Version byte = 1
)

// Payload tag bytes. Registered payload codes start at CodeMin; the
// values below are reserved.
const (
	// tagNil marks an absent payload (nil interface).
	tagNil byte = 0
	// Tag 1 is retired: it marked a gob-encoded payload, which no
	// decoder accepts any more. Never reassign it.

	// CodeMin is the smallest assignable payload code.
	CodeMin byte = 0x10
)

// ErrUnregistered reports a payload whose concrete type has no
// registered codec. Errors wrapping it name the type.
var ErrUnregistered = errors.New("wire: unregistered payload type")

// Envelope is the transport frame: the message framing the UDP RPC
// manager puts on the wire around one protocol payload. Field meaning
// is owned by the transport (rpcudp); this package only serializes it.
type Envelope struct {
	Kind    byte
	Seq     uint64
	Type    string
	From    string
	Payload any
	ErrText string
}

// Compact is the codec. Its methods are safe for concurrent use.
//
// Append and Decode each return a bool between the value and the error
// that is always false: it reported the gob fallback and legacy-frame
// paths, both deleted, and stays only because the frozen perf/drivers.go
// compiles against the three-result shape (ROADMAP, Benchmark v2).
type Compact struct{}

// Append encodes env, appending to dst (pass a pooled or stack buffer
// to avoid allocation; nil works).
func (Compact) Append(dst []byte, env *Envelope) ([]byte, bool, error) {
	e := Encoder{Buf: dst}
	e.Byte(Magic)
	e.Byte(Version)
	e.Byte(env.Kind)
	e.Uvarint(env.Seq)
	e.String(env.Type)
	e.String(env.From)
	e.String(env.ErrText)
	if err := appendPayload(&e, env.Payload); err != nil {
		return nil, false, fmt.Errorf("wire: encode %s: %w", env.Type, err)
	}
	return e.Buf, false, nil
}

// Decode parses one frame. Malformed input yields an error, never a
// panic (FuzzWireRoundTrip enforces this).
func (Compact) Decode(data []byte) (Envelope, bool, error) {
	if len(data) == 0 {
		return Envelope{}, false, fmt.Errorf("wire: empty frame")
	}
	if data[0] != Magic {
		return Envelope{}, false, fmt.Errorf("wire: bad magic %#x", data[0])
	}
	d := Decoder{Buf: data, Off: 1}
	if v := d.Byte(); d.Err == nil && v != Version {
		return Envelope{}, false, fmt.Errorf("wire: unsupported version %d", v)
	}
	var env Envelope
	env.Kind = d.Byte()
	env.Seq = d.Uvarint()
	env.Type = d.InternedString()
	env.From = d.InternedString()
	env.ErrText = d.String()
	if d.Err != nil {
		return Envelope{}, false, fmt.Errorf("wire: decode header: %w", d.Err)
	}
	payload, err := decodePayload(&d)
	if err != nil {
		return Envelope{}, false, fmt.Errorf("wire: decode %s: %w", env.Type, err)
	}
	env.Payload = payload
	return env, false, nil
}

// bufPool recycles encode buffers, boxed because a sync.Pool holds
// pointers; boxPool recycles the emptied boxes, so a GetBuf/PutBuf pair
// allocates nothing once both pools are warm.
var (
	bufPool = sync.Pool{
		New: func() any { b := make([]byte, 0, 512); return &b },
	}
	boxPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBuf fetches a pooled encode buffer (length 0). Pass it to
// Compact.Append and return the *result* with PutBuf once the bytes have
// been copied to the socket.
func GetBuf() []byte {
	box := bufPool.Get().(*[]byte)
	b := (*box)[:0]
	*box = nil
	boxPool.Put(box)
	return b
}

// PutBuf returns an encode buffer to the pool.
func PutBuf(b []byte) {
	box := boxPool.Get().(*[]byte)
	*box = b
	bufPool.Put(box)
}
