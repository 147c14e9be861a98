// Package checkpoint defines the on-disk snapshot format for deterministic
// simulation checkpoint/restore.
//
// A checkpoint file is a single JSON envelope carrying a format version, the
// producing tool, the run's config digest (so a snapshot can never be resumed
// under a different configuration), the virtual time and event count at
// capture, a SHA-256 checksum of the state payload, and the payload itself as
// raw JSON. Marshal writes the envelope compact, its payload appended by the
// producer, and Decode also reads the indented files earlier versions wrote.
// The payload's schema belongs to the producer (internal/array and
// internal/cluster), which writes it with a Writer in encoding/json's exact
// bytes; this package only guarantees integrity and identification.
//
// Files are written atomically (temp file + fsync + rename, via
// internal/atomicio), so a crash during a checkpoint write leaves the
// previous complete snapshot intact rather than a truncated file.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/atomicio"
)

// Version is the checkpoint format version. Bump it whenever the envelope or
// the array's state schema changes incompatibly; Read rejects mismatches.
const Version = 1

// Envelope is the checkpoint file's framing around the serialized state.
type Envelope struct {
	Version      int     `json:"version"`
	Tool         string  `json:"tool"`
	ConfigDigest string  `json:"config_digest"`
	SimTime      float64 `json:"sim_time"`
	EventsFired  uint64  `json:"events_fired"`
	// Checksum is the hex SHA-256 of the State payload in compacted form
	// (the bytes Marshal writes), detecting torn or bit-rotted snapshots
	// before a resume trusts them.
	Checksum string          `json:"checksum"`
	State    json.RawMessage `json:"state"`
}

// sumPlaceholder holds the checksum's place in the header until the state
// bytes it covers have been written.
var sumPlaceholder = strings.Repeat("0", 2*sha256.Size)

func digest(compacted []byte) string {
	sum := sha256.Sum256(compacted)
	return hex.EncodeToString(sum[:])
}

// Marshal sets e.Checksum and returns the envelope's compact JSON
// encoding, with the state payload that appendState appends to the buffer
// it is given in place of e.State. It writes the header first, with a
// placeholder of the checksum's length in the checksum slot, the header's
// last field; then the state, straight into the output; then the SHA-256
// of exactly the appended bytes into the slot. size is the expected length
// of the whole encoding: the output buffer, which is all Marshal allocates
// besides the checksum string, is sized from it.
func Marshal(e *Envelope, size int, appendState func(dst []byte) ([]byte, error)) ([]byte, error) {
	w := NewWriter(make([]byte, 0, size))
	w.Raw(`{"version":`)
	w.Int(e.Version)
	w.Raw(`,"tool":`)
	w.String(e.Tool)
	w.Raw(`,"config_digest":`)
	w.String(e.ConfigDigest)
	w.Raw(`,"sim_time":`)
	w.Float(e.SimTime)
	w.Raw(`,"events_fired":`)
	w.Uint(e.EventsFired)
	w.Raw(`,"checksum":"` + sumPlaceholder + `","state":`)
	head, err := w.Bytes()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	data, err := appendState(head)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: state: %w", err)
	}
	e.Checksum = digest(data[len(head):])
	slot := len(head) - len(`","state":`) - len(sumPlaceholder)
	copy(data[slot:], e.Checksum)
	return append(data, '}', '\n'), nil
}

// Encode is Marshal with e.State as the payload: it compacts and validates
// the state straight into the output. Fixtures, tests and the fuzz target
// encode decoded envelopes with it; the simulators append their state with
// Marshal instead.
func Encode(e *Envelope) ([]byte, error) {
	state := e.State
	return Marshal(e, len(state)+256, func(dst []byte) ([]byte, error) {
		out := bytes.NewBuffer(dst)
		if err := json.Compact(out, state); err != nil {
			return nil, err
		}
		return out.Bytes(), nil
	})
}

// Decode parses and integrity-checks an encoded envelope, compact or
// indented. The checksum covers the state in compacted (canonical
// whitespace) form, so it survives the re-indentation of the indented
// files earlier versions of Encode wrote, and the returned State is that
// compacted form: a payload round-trips byte-identically regardless of the
// envelope's on-disk whitespace.
func Decode(data []byte) (*Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("checkpoint: parse: %w", err)
	}
	if e.Version != Version {
		return nil, fmt.Errorf("checkpoint: format version %d, want %d", e.Version, Version)
	}
	var state bytes.Buffer
	if err := json.Compact(&state, e.State); err != nil {
		return nil, fmt.Errorf("checkpoint: parse: state: %w", err)
	}
	if digest(state.Bytes()) != e.Checksum {
		return nil, fmt.Errorf("checkpoint: state checksum mismatch (file corrupt or truncated)")
	}
	e.State = state.Bytes()
	return &e, nil
}

// WriteFile writes an encoded envelope to path atomically.
func WriteFile(path string, data []byte) error {
	return atomicio.WriteFile(path, data, 0o644)
}

// Read loads, parses, and integrity-checks the checkpoint at path.
func Read(path string) (*Envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	e, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return e, nil
}
