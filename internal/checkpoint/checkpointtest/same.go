package checkpointtest

import (
	"bytes"
	"testing"
)

// SameSnapshots fails t unless got holds exactly the envelopes of want,
// byte for byte and in order. At the first difference it shows both sides
// around the first differing byte of the state, which the header's
// checksum only summarizes.
func SameSnapshots(t testing.TB, want, got [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d snapshots, want %d", len(got), len(want))
	}
	for i := range want {
		if bytes.Equal(want[i], got[i]) {
			continue
		}
		w, g := state(want[i]), state(got[i])
		if bytes.Equal(w, g) {
			w, g = want[i], got[i]
		}
		at := 0
		for at < len(w) && at < len(g) && w[at] == g[at] {
			at++
		}
		t.Fatalf("snapshot %d differs at state byte %d:\nwant …%s…\ngot  …%s…", i, at, around(w, at), around(g, at))
	}
}

// state returns the envelope's bytes from its state field on.
func state(env []byte) []byte {
	return env[max(0, bytes.Index(env, []byte(`"state":`))):]
}

// around returns up to 80 bytes of b on each side of at.
func around(b []byte, at int) []byte {
	return b[max(0, at-80):min(len(b), at+80)]
}
