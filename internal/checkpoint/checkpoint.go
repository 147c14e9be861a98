// Package checkpoint defines the on-disk snapshot format for deterministic
// simulation checkpoint/restore.
//
// A checkpoint file is a single JSON envelope carrying a format version, the
// producing tool, the run's config digest (so a snapshot can never be resumed
// under a different configuration), the virtual time and event count at
// capture, a SHA-256 checksum of the state payload, and the payload itself as
// raw JSON. Encode writes the envelope compact; Decode also reads the
// indented files earlier versions wrote. The payload's schema belongs to the
// producer (internal/array); this package only guarantees integrity and
// identification.
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
	// (the bytes Encode writes), detecting torn or bit-rotted snapshots
	// before a resume trusts them.
	Checksum string          `json:"checksum"`
	State    json.RawMessage `json:"state"`
}

// header is the Envelope without its State, field for field in the same
// order, so that Encode can marshal the small part by reflection and write
// the large part itself.
type header struct {
	Version      int     `json:"version"`
	Tool         string  `json:"tool"`
	ConfigDigest string  `json:"config_digest"`
	SimTime      float64 `json:"sim_time"`
	EventsFired  uint64  `json:"events_fired"`
	Checksum     string  `json:"checksum"`
}

// sumPlaceholder holds the checksum's place in Encode's header until the
// state bytes it covers have been written.
var sumPlaceholder = strings.Repeat("0", 2*sha256.Size)

func digest(compacted []byte) string {
	sum := sha256.Sum256(compacted)
	return hex.EncodeToString(sum[:])
}

// Encode sets e.Checksum and returns the envelope's compact JSON encoding.
// The state is compacted and validated in one pass straight into the
// output, after the header, and the checksum is the SHA-256 of exactly
// those bytes; it is then written into the header's checksum slot, the
// last header field, which a placeholder of the same length held.
func Encode(e *Envelope) ([]byte, error) {
	head, err := json.Marshal(&header{
		Version:      e.Version,
		Tool:         e.Tool,
		ConfigDigest: e.ConfigDigest,
		SimTime:      e.SimTime,
		EventsFired:  e.EventsFired,
		Checksum:     sumPlaceholder,
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	head = append(head[:len(head)-1], `,"state":`...) // drop the '}'
	var out bytes.Buffer
	out.Grow(len(head) + len(e.State) + 2)
	out.Write(head)
	if err := json.Compact(&out, e.State); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: state: %w", err)
	}
	data := out.Bytes()
	e.Checksum = digest(data[len(head):])
	slot := len(head) - len(`","state":`) - len(sumPlaceholder)
	copy(data[slot:], e.Checksum)
	return append(data, '}', '\n'), nil
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

// Write encodes the envelope and writes it to path atomically.
func Write(path string, e *Envelope) error {
	data, err := Encode(e)
	if err != nil {
		return err
	}
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
