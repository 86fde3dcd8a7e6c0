package wire

import "testing"

// Test-only view of the intern table.

const (
	InternMaxEntries = internMaxEntries
	InternMaxLen     = internMaxLen
)

// InternedLen returns how many strings the table holds.
func InternedLen() int {
	if m := interned.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// IsInterned reports whether s is in the table.
func IsInterned(s string) bool {
	m := interned.Load()
	if m == nil {
		return false
	}
	_, ok := (*m)[s]
	return ok
}

// KeepInternTable puts the table back as it is now when the test ends:
// a test that floods it must not leave the others a full one.
func KeepInternTable(t testing.TB) {
	old := interned.Load()
	t.Cleanup(func() { interned.Store(old) })
}
