package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/transport"
)

// TestJitterHashIsFNV1a pins the written-out hash to hash/fnv's: the
// flush deadlines derived from it (sendMachine.deadline) are part of
// every golden trace.
func TestJitterHashIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addr := func() transport.Addr {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return transport.Addr(b)
	}
	for i := 0; i < 1000; i++ {
		self, to, seq := addr(), addr(), rng.Uint64()
		h := fnv.New64a()
		h.Write([]byte(self))
		h.Write([]byte(to))
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], seq)
		h.Write(w[:])
		if got, want := fnvUint64(fnvAddr(fnvAddr(fnvOffset, self), to), seq), h.Sum64(); got != want {
			t.Fatalf("deadline hash of (%q, %q, %d) = %#x, hash/fnv says %#x", self, to, seq, got, want)
		}
	}
}
