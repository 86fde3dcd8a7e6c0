package wire

import (
	"fmt"
	"testing"
)

// TestInternTableIsBounded: a sender forging a fresh From per datagram
// fills the table once and then stops growing it; strings it did learn
// keep coming back as the one shared copy.
func TestInternTableIsBounded(t *testing.T) {
	known := Intern([]byte("127.0.0.1:9001"))
	frame := func(from string) []byte {
		env := Envelope{Kind: 1, Type: "maan.range", From: from}
		data, _, err := Compact{}.Append(nil, &env)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i := 0; i < 10000; i++ {
		from := fmt.Sprintf("10.%d.%d.%d:%d", i>>16, i>>8&0xff, i&0xff, 1024+i)
		env, _, err := Compact{}.Decode(frame(from))
		if err != nil || env.From != from {
			t.Fatalf("forged frame %d: From %q, %v", i, env.From, err)
		}
	}
	if n := len(*interned.Load()); n > internMaxEntries {
		t.Errorf("intern table holds %d strings, cap is %d", n, internMaxEntries)
	}
	long := make([]byte, internMaxLen+1)
	for i := range long {
		long[i] = 'x'
	}
	before := len(*interned.Load())
	Intern(long)
	if _, ok := (*interned.Load())[string(long)]; ok || len(*interned.Load()) != before {
		t.Errorf("a %d-byte string was interned; the limit is %d", len(long), internMaxLen)
	}
	env, _, err := Compact{}.Decode(frame("127.0.0.1:9001"))
	if err != nil {
		t.Fatal(err)
	}
	if again := Intern([]byte("127.0.0.1:9001")); again != known || env.From != known {
		t.Error("a learned string changed")
	}
	if allocs := testing.AllocsPerRun(100, func() { Intern([]byte("127.0.0.1:9001")) }); allocs != 0 {
		t.Errorf("interning a learned string allocates %.0f", allocs)
	}
}
