package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	in := &Envelope{
		Version:      Version,
		Tool:         "arraysim",
		ConfigDigest: "abc123",
		SimTime:      1234.5,
		EventsFired:  99,
		State:        json.RawMessage(`{"disks":[{"id":0}]}`),
	}
	write(t, path, in)
	out, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tool != in.Tool || out.ConfigDigest != in.ConfigDigest ||
		out.SimTime != in.SimTime || out.EventsFired != in.EventsFired {
		t.Fatalf("envelope fields changed across round trip: %+v", out)
	}
	if !bytes.Equal(out.State, in.State) {
		t.Fatalf("state changed: %s", out.State)
	}
}

// write encodes e and writes it to path.
func write(t *testing.T, path string, e *Envelope) {
	t.Helper()
	data, err := Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeIsStable(t *testing.T) {
	e := &Envelope{Version: Version, Tool: "t", State: json.RawMessage(`{"a":1}`)}
	a, err := Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	e := &Envelope{Version: Version, Tool: "arraysim", State: json.RawMessage(`{"clock":42}`)}
	write(t, path, e)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("flipped state byte", func(t *testing.T) {
		bad := bytes.Replace(data, []byte(`42`), []byte(`43`), 1)
		if bytes.Equal(bad, data) {
			t.Fatal("corruption did not apply")
		}
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("want checksum error, got %v", err)
		}
	})
	t.Run("truncated file", func(t *testing.T) {
		if _, err := Decode(data[:len(data)/2]); err == nil {
			t.Fatal("want parse error for truncated file")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		var env Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		env.Version = Version + 1
		raw, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(raw); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("want version error, got %v", err)
		}
	})
	t.Run("missing file", func(t *testing.T) {
		if _, err := Read(filepath.Join(t.TempDir(), "nope.json")); err == nil {
			t.Fatal("want error for missing file")
		}
	})
}

// legacyEncode is how version-1 envelopes were first written: the checksum
// of the compacted state, then json.MarshalIndent of the whole envelope.
func legacyEncode(t testing.TB, e Envelope) []byte {
	t.Helper()
	var state bytes.Buffer
	if err := json.Compact(&state, e.State); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(state.Bytes())
	e.Checksum = hex.EncodeToString(sum[:])
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestEncodeMatchesIndentedEnvelope checks that the compact envelope
// carries the same checksum and state as the indented one for the same
// input, and that Decode reads both.
func TestEncodeMatchesIndentedEnvelope(t *testing.T) {
	in := Envelope{
		Version: Version, Tool: "t", ConfigDigest: `d"<&>`, SimTime: 0.1, EventsFired: 7,
		State: json.RawMessage("{ \"b\": [1, 2.5e-7, {\"c\": null}],\n \"a\": \"x\\u003cy\" }"),
	}
	compact, err := Encode(&Envelope{
		Version: in.Version, Tool: in.Tool, ConfigDigest: in.ConfigDigest,
		SimTime: in.SimTime, EventsFired: in.EventsFired, State: in.State,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(compact, []byte("\n")) != 1 {
		t.Fatalf("Encode output is not one compact line:\n%s", compact)
	}
	var raw bytes.Buffer
	if err := json.Compact(&raw, compact); err != nil || !bytes.Equal(raw.Bytes(), bytes.TrimSuffix(compact, []byte("\n"))) {
		t.Fatalf("Encode output is not compact JSON (%v):\n%s", err, compact)
	}
	want, err := Decode(legacyEncode(t, in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(compact)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compact and indented envelopes decode differently:\ngot  %+v\nwant %+v", got, want)
	}
}

// fixtures are the committed version-1 snapshots of the array and fleet
// packages, written indented by the first encoder.
var fixtures = []string{
	filepath.Join("..", "array", "testdata", "ckpt_v1_raid6_read.json"),
	filepath.Join("..", "cluster", "testdata", "ckpt_v1_fleet.json"),
}

// TestEncodeReproducesFixtureChecksums re-encodes each committed fixture
// and requires its checksum and state unchanged.
func TestEncodeReproducesFixtureChecksums(t *testing.T) {
	for _, path := range fixtures {
		t.Run(filepath.Base(path), func(t *testing.T) {
			env, err := Read(path)
			if err != nil {
				t.Fatal(err)
			}
			sum, state := env.Checksum, env.State
			data, err := Encode(env)
			if err != nil {
				t.Fatal(err)
			}
			if env.Checksum != sum {
				t.Fatalf("re-encoded checksum %s, fixture has %s", env.Checksum, sum)
			}
			again, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if again.Checksum != sum || !bytes.Equal(again.State, state) {
				t.Fatal("re-encoded fixture decodes to a different checksum or state")
			}
		})
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to Decode. It must never
// panic, and whatever it accepts must re-encode to the same checksum and
// decode again to the same envelope.
func FuzzCheckpointDecode(f *testing.F) {
	seed := Envelope{
		Version: Version, Tool: "fuzz", ConfigDigest: "abc", SimTime: 1.5, EventsFired: 3,
		State: json.RawMessage(`{"clock":1.5,"place":{"0":1,"10":0,"2":1},"events":[{"time":2,"kind":"epoch"}]}`),
	}
	f.Add(legacyEncode(f, seed))
	compact, err := Encode(&seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compact)
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(data)
		if err != nil {
			return
		}
		sum := env.Checksum
		enc, err := Encode(env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		if env.Checksum != sum {
			t.Fatalf("re-encoded checksum %s, decoded %s", env.Checksum, sum)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, env) {
			t.Fatalf("round trip changed the envelope:\n%+v\n%+v", again, env)
		}
	})
}
