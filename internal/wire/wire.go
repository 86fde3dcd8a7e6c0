// Package wire is the compact, versioned binary codec for the UDP
// transport (DESIGN.md §11). It replaces per-datagram gob encoding,
// which re-ships full type descriptors with every packet and allocates
// a fresh encoder and buffer per send — pure overhead against the
// paper's per-node message-cost budget (§4, §5).
//
// The codec is split in two layers:
//
//   - the envelope: a fixed header (magic, version, kind, sequence
//     number) followed by length-prefixed Type/From strings and the
//     payload — hand-written, no reflection;
//   - the payload: a registry of protocol message types, each with a
//     one-byte code and hand-written, length-prefixed field encoders
//     (Register). Unregistered payloads fall back to gob inside the
//     compact envelope, so migration is incremental: a new message type
//     works before it is registered, it just costs gob bytes.
//
// Frames from pre-wire nodes — whole-envelope gob datagrams — are
// detected by the absence of the magic byte and decoded on the legacy
// path, so a mixed-version deployment keeps talking during rollout
// (see Legacy for the sending side of that story).
//
// Only socket transports serialize: MemNetwork and SimNetwork hand the
// payload values over untouched, so the simulation path (and every
// datcheck trace) is unaffected by codec choices.
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// Frame layout constants.
const (
	// Magic is the first byte of every compact frame. The value is
	// chosen to be unreachable as the first byte of a gob stream: gob
	// opens with a message byte count, encoded either as a single byte
	// <= 0x7f or as a length descriptor >= 0xf8, so 0xDA can never
	// start a legacy frame and one byte suffices to tell the formats
	// apart.
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
	// tagGob marks a gob-encoded fallback payload: the remainder of the
	// frame is a gob stream through the any interface, exactly what the
	// pre-wire transport shipped.
	tagGob byte = 1
	// CodeMin is the smallest assignable payload code.
	CodeMin byte = 0x10
)

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

// Codec serializes envelopes. Implementations must be safe for
// concurrent use.
type Codec interface {
	// Append encodes env, appending to dst (pass a pooled or stack
	// buffer to avoid allocation; nil works). fallback reports that the
	// payload was not registered and took the gob fallback path.
	Append(dst []byte, env *Envelope) (data []byte, fallback bool, err error)
	// Decode parses one frame. legacy reports a whole-envelope gob
	// frame from a pre-wire node. Malformed input yields an error,
	// never a panic (FuzzWireRoundTrip enforces this).
	Decode(data []byte) (env Envelope, legacy bool, err error)
}

// Compact is the default codec: compact frames out, compact or legacy
// gob frames in.
type Compact struct{}

// Legacy is the mid-rollout codec: it *encodes* whole-envelope gob
// frames (what pre-wire nodes expect) while still decoding both
// formats. Deployments upgrade in two steps — first ship binaries with
// Legacy (decode-capable, old bytes), then flip to Compact once every
// peer understands the magic byte.
type Legacy struct{}

// Default is the codec rpcudp uses when Config.Codec is nil.
var Default Codec = Compact{}

var (
	_ Codec = Compact{}
	_ Codec = Legacy{}
)

// Append implements Codec.
func (Compact) Append(dst []byte, env *Envelope) ([]byte, bool, error) {
	e := Encoder{Buf: dst}
	e.Byte(Magic)
	e.Byte(Version)
	e.Byte(env.Kind)
	e.Uvarint(env.Seq)
	e.String(env.Type)
	e.String(env.From)
	e.String(env.ErrText)
	fallback, err := appendPayload(&e, env.Payload)
	if err != nil {
		return nil, false, fmt.Errorf("wire: encode %s: %w", env.Type, err)
	}
	return e.Buf, fallback, nil
}

// Decode implements Codec.
func (Compact) Decode(data []byte) (Envelope, bool, error) {
	if len(data) == 0 {
		return Envelope{}, false, fmt.Errorf("wire: empty frame")
	}
	if data[0] != Magic {
		env, err := decodeGobEnvelope(data)
		return env, true, err
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

// Append implements Codec: whole-envelope gob, the pre-wire format.
func (Legacy) Append(dst []byte, env *Envelope) ([]byte, bool, error) {
	buf := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(buf).Encode(env); err != nil {
		return nil, false, fmt.Errorf("wire: gob encode %s: %w", env.Type, err)
	}
	return buf.Bytes(), true, nil
}

// Decode implements Codec: same dual-format read path as Compact.
func (Legacy) Decode(data []byte) (Envelope, bool, error) {
	return Compact{}.Decode(data)
}

// decodeGobEnvelope reads a whole-envelope gob frame as emitted by
// pre-wire nodes (and by Legacy). Field names match the historical
// rpcudp envelope struct; gob matches fields by name, so the struct
// identity is irrelevant.
func decodeGobEnvelope(data []byte) (Envelope, error) {
	var env Envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return Envelope{}, fmt.Errorf("wire: gob decode: %w", err)
	}
	return env, nil
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
// Codec.Append and return the *result* with PutBuf once the bytes have
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
