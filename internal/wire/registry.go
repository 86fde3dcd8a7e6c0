package wire

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// EncodeFunc writes one payload value's fields. The value is the
// registered concrete type (by value, not pointer); implementations
// type-assert it back.
type EncodeFunc func(e *Encoder, v any)

// DecodeFunc reads the fields back and returns the payload value. It
// must consume exactly what EncodeFunc wrote and report malformed input
// through d.Err (checked by the caller) or an explicit error.
type DecodeFunc func(d *Decoder) (any, error)

// Code ranges by protocol layer, so registrations stay readable and
// collisions are caught at a glance. The registry panics on any duplicate
// regardless.
const (
	// CodeChordBase..CodeChordBase+15: internal/chord payloads.
	CodeChordBase byte = CodeMin
	// CodeCoreBase..CodeCoreBase+15: internal/core payloads.
	CodeCoreBase byte = 0x20
	// CodeMAANBase..CodeMAANBase+15: internal/maan payloads (carrying
	// the gma layer's Resource descriptions).
	CodeMAANBase byte = 0x30
	// CodeTestBase..0xFF: reserved for payload types that exist only in
	// a test binary (rpcudp's testPayload, transporttest.Payload); no
	// protocol layer takes a code from here.
	CodeTestBase byte = 0xF0
)

type registration struct {
	code   byte
	name   string
	typ    reflect.Type
	encode EncodeFunc
	decode DecodeFunc
}

var (
	regMu  sync.RWMutex
	byCode = map[byte]*registration{}
	byType = map[reflect.Type]*registration{}
)

// Register binds a payload code to a concrete message type and its
// hand-written field codec. sample conveys the type (pass a zero
// value, e.g. StepReq{}); values of exactly that type encode through
// enc, everything else fails with ErrUnregistered. Register panics on a
// duplicate code or type, or a reserved code: registrations are
// compile-time protocol facts, not runtime conditions. Call from the
// package that declares the type (the wirereg datlint analyzer checks
// this).
func Register(code byte, sample any, enc EncodeFunc, dec DecodeFunc) {
	if code < CodeMin {
		panic(fmt.Sprintf("wire: code %#x is reserved (CodeMin is %#x)", code, CodeMin))
	}
	if enc == nil || dec == nil {
		panic("wire: Register with nil codec func")
	}
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("wire: Register with nil sample")
	}
	r := &registration{code: code, name: t.String(), typ: t, encode: enc, decode: dec}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := byCode[code]; ok {
		panic(fmt.Sprintf("wire: code %#x already registered to %s", code, prev.name))
	}
	if prev, ok := byType[t]; ok {
		panic(fmt.Sprintf("wire: type %s already registered as %#x", t, prev.code))
	}
	byCode[code] = r
	byType[t] = r
}

// Registered reports whether the concrete type of sample has a
// registered codec (used by tests and the fuzz harness).
func Registered(sample any) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := byType[reflect.TypeOf(sample)]
	return ok
}

// Samples returns one zero value per registered payload type, sorted
// by code — the fuzz and equivalence harnesses iterate it so coverage
// tracks the registry instead of a hand-kept list.
func Samples() []any {
	regMu.RLock()
	defer regMu.RUnlock()
	regs := make([]*registration, 0, len(byCode))
	for _, r := range byCode {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].code < regs[j].code })
	out := make([]any, len(regs))
	for i, r := range regs {
		out[i] = reflect.Zero(r.typ).Interface()
	}
	return out
}

// appendPayload writes the payload tag and body. Registered types cost
// one code byte plus their fields; nil costs one byte; anything else
// is ErrUnregistered.
func appendPayload(e *Encoder, payload any) error {
	if payload == nil {
		e.Byte(tagNil)
		return nil
	}
	regMu.RLock()
	r, ok := byType[reflect.TypeOf(payload)]
	regMu.RUnlock()
	if !ok {
		return fmt.Errorf("%w %T", ErrUnregistered, payload)
	}
	e.Byte(r.code)
	r.encode(e, payload)
	return nil
}

// decodePayload is the inverse of appendPayload.
func decodePayload(d *Decoder) (any, error) {
	tag := d.Byte()
	if d.Err != nil {
		return nil, d.Err
	}
	if tag == tagNil {
		return nil, nil
	}
	regMu.RLock()
	r, ok := byCode[tag]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: unknown payload code %#x", tag)
	}
	v, err := r.decode(d)
	if err != nil {
		return nil, err
	}
	if d.Err != nil {
		return nil, d.Err
	}
	return v, nil
}

// EncodePayload serializes one payload standalone — tag plus fields,
// no envelope. Protocol layers use it for nested blobs (the broadcast
// payloads of the on-demand protocol).
func EncodePayload(payload any) ([]byte, error) {
	e := Encoder{}
	if err := appendPayload(&e, payload); err != nil {
		return nil, err
	}
	return e.Buf, nil
}

// DecodePayload is the inverse of EncodePayload.
func DecodePayload(data []byte) (any, error) {
	d := Decoder{Buf: data}
	v, err := decodePayload(&d)
	if err != nil {
		return nil, err
	}
	return v, nil
}
