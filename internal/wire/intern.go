package wire

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Intern table bounds. Every datagram names its message type and its
// sender, and directory queries name their originator and attribute:
// a few dozen distinct short strings per deployment, decoded millions
// of times. The table holds at most internMaxEntries strings of at
// most internMaxLen bytes (64 KiB in all), so a sender forging
// distinct values fills it once and then gets the plain copying path.
const (
	internMaxEntries = 1024
	internMaxLen     = 64
)

// interned is the table, replaced whole on every insert so readers
// need no lock: a lookup is one atomic load and one map access keyed
// by the frame bytes, without copying them.
var (
	interned atomic.Pointer[map[string]string]
	internMu sync.Mutex // serializes inserts
)

// Intern returns b as a string, sharing one copy between all calls
// with equal bytes while the table has room. The result never aliases
// b.
func Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	m := interned.Load()
	if m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	if len(s) <= internMaxLen && (m == nil || len(*m) < internMaxEntries) {
		internInsert(s)
	}
	return s
}

func internInsert(s string) {
	internMu.Lock()
	defer internMu.Unlock()
	var old map[string]string
	if m := interned.Load(); m != nil {
		old = *m
	}
	if _, ok := old[s]; ok || len(old) >= internMaxEntries {
		return
	}
	next := make(map[string]string, len(old)+1)
	maps.Copy(next, old)
	next[s] = s
	interned.Store(&next)
}
