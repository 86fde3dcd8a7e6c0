package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/transport"
)

// TestJitterHashIsFNV1a pins the written-out hash to hash/fnv's: the
// delays derived from it are part of every golden trace.
func TestJitterHashIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		addr := transport.Addr(make([]byte, rng.Intn(24)))
		b := []byte(addr)
		rng.Read(b)
		addr = transport.Addr(b)
		key, epoch, attempt := ident.ID(rng.Uint64()), rng.Int63()-rng.Int63(), rng.Intn(9)
		h := fnv.New64a()
		h.Write([]byte(addr))
		for _, x := range []uint64{uint64(key), uint64(epoch), uint64(attempt)} {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], x)
			h.Write(w[:])
		}
		if got, want := jitterHash(addr, key, epoch, attempt), h.Sum64(); got != want {
			t.Fatalf("jitterHash(%q, %d, %d, %d) = %#x, hash/fnv says %#x", addr, key, epoch, attempt, got, want)
		}
	}
}
