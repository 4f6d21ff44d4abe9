// Package checkpoint is the crash-safe progress store behind resumable
// studies and sweeps: a killed run restarts from its last checkpoint
// and produces output byte-identical to a run that was never
// interrupted.
//
// # File format
//
// A checkpoint file is a fixed binary header followed by a JSON
// payload:
//
//	bytes 0..3   magic "SACK"
//	bytes 4..7   format version, uint32 little-endian (currently 2)
//	bytes 8..15  payload length, uint64 little-endian
//	bytes 16..19 CRC-32 (IEEE) of the payload, uint32 little-endian
//	bytes 20..   the JSON-encoded Snapshot
//
// Load verifies all four fields before parsing a byte of JSON: a
// truncated file, a flipped bit, or a torn write surfaces as
// ErrCheckpointCorrupt — never as a silently wrong resume. A file in
// any other format revision surfaces as ErrCheckpointVersion, and a
// checkpoint whose config hash differs from the run trying to resume
// it as ErrCheckpointMismatch (see Snapshot.Verify).
//
// # Atomicity
//
// A write never exposes a partially-written checkpoint: it writes to a
// temporary file in the target directory, fsyncs it, renames it over
// the destination, and fsyncs the directory. A process killed at any
// instant therefore leaves either the previous complete checkpoint or
// the new complete checkpoint — the kill-point property tests exercise
// exactly this.
//
// # Write cost
//
// A run appends each crawled iteration to a Prefix, which JSON-encodes
// it once. A Writer then frames the cached bytes between a small
// encoded head and tail, so a write encodes only the iterations crawled
// since the previous one and copies the rest: its cost is linear in the
// prefix, not a re-encode of it. The file format is unchanged — a
// written file equals the header framing json.Marshal of the snapshot.
//
// # What a snapshot holds
//
// Progress state is stored in replay form: the (engine, iteration)
// cursor plus the emitted iteration prefix in dataset order. The
// analysis accumulator is deliberately NOT serialized structurally —
// its state is a pure function of the folded prefix (the Merge
// property tests pin this), so restoring it is a re-fold of the saved
// iterations through a fresh analysis.Accumulator, which is guaranteed
// byte-identical where a hand-serialized mirror of interned-id state
// could silently drift. Sweep snapshots hold one CellState per matrix
// cell: completed cells keep only their scalar result, the in-flight
// cells their cursor and prefix.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"slices"

	"searchads/internal/crawler"
)

// Typed sentinel errors, matchable with errors.Is.
var (
	// ErrCheckpointCorrupt reports a checkpoint file that failed
	// structural verification: bad magic, truncated payload, CRC
	// mismatch, unparsable JSON, or internally inconsistent state. The
	// safe reaction is a clean restart from scratch — never a resume.
	ErrCheckpointCorrupt = errors.New("checkpoint: corrupt or truncated checkpoint")
	// ErrCheckpointMismatch reports a structurally valid checkpoint
	// that belongs to a different run: its config/matrix hash does not
	// match the configuration trying to resume it. Resuming would
	// stitch two different studies together, so the load refuses.
	ErrCheckpointMismatch = errors.New("checkpoint: checkpoint belongs to a different configuration")
	// ErrCheckpointVersion reports a checkpoint whose format revision is
	// not FormatVersion. Version 1 files may hold iterations crawled
	// under faults without their outcome stamp, which a resume would
	// join to a stamped tail; a later revision is not readable here.
	ErrCheckpointVersion = errors.New("checkpoint: unsupported checkpoint format version")
)

// FormatVersion is the current on-disk format revision. Version 2
// checkpoints hold iterations whose Outcome, Rotations and
// CaptchaSolves are stamped on every crawl, faulted or not.
const FormatVersion = 2

var magic = [4]byte{'S', 'A', 'C', 'K'}

const headerSize = 20

// Snapshot is one run's checkpointed progress: exactly one of Study or
// Sweep is set, according to Kind.
type Snapshot struct {
	// Kind is "study" or "sweep".
	Kind string `json:"kind"`
	// ConfigHash fingerprints the run's configuration (HashConfig of
	// the caller's canonical config form). Resume refuses a snapshot
	// whose hash differs from the resuming run's.
	ConfigHash string `json:"config_hash"`
	// Study is the single-study state (Kind == "study").
	Study *StudyState `json:"study,omitempty"`
	// Sweep is the sweep-campaign state (Kind == "sweep").
	Sweep *SweepState `json:"sweep,omitempty"`
}

// StudyState is a single study's progress: the crawled prefix in
// dataset order. The (engine, iteration) cursor and the ad-choice
// visited sets are re-derived from it with crawler.ResumeFromIterations,
// and the analysis accumulator by re-folding it.
type StudyState struct {
	// Cursor maps engine name → completed iteration count — recorded
	// explicitly so Load can cross-check it against the prefix (a
	// disagreement means the file is corrupt) and so operators can read
	// progress off the file without parsing iterations.
	Cursor map[string]int `json:"cursor"`
	// Iterations is the emitted iteration prefix, in dataset order.
	Iterations []*crawler.Iteration `json:"iterations"`
}

// SweepState is a sweep campaign's progress.
type SweepState struct {
	// Cells holds one entry per matrix cell, in expansion order.
	Cells []CellState `json:"cells"`
}

// CellState is one sweep cell's checkpointed status.
type CellState struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Done marks a completed cell; Result carries its serialized
	// sweep.CellResult (opaque to this package — the sweep layer owns
	// the type).
	Done   bool            `json:"done,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Iterations is an in-flight cell's emitted prefix (nil for
	// pending and completed cells); resume fast-forwards the cell's
	// crawl past it.
	Iterations []*crawler.Iteration `json:"iterations,omitempty"`
}

// Verify checks the snapshot against the resuming run's identity.
func (s *Snapshot) Verify(kind, configHash string) error {
	if s.Kind != kind {
		return fmt.Errorf("%w: checkpoint is a %s, not a %s", ErrCheckpointMismatch, s.Kind, kind)
	}
	if s.ConfigHash != configHash {
		return fmt.Errorf("%w: config hash %s, want %s", ErrCheckpointMismatch, s.ConfigHash, configHash)
	}
	return nil
}

// validate cross-checks internal consistency after a structurally
// sound load.
func (s *Snapshot) validate() error {
	switch s.Kind {
	case "study":
		if s.Study == nil {
			return fmt.Errorf("%w: study snapshot has no study state", ErrCheckpointCorrupt)
		}
		counts := make(map[string]int)
		for _, it := range s.Study.Iterations {
			if it == nil {
				return fmt.Errorf("%w: null iteration in prefix", ErrCheckpointCorrupt)
			}
			counts[it.Engine]++
		}
		if len(counts) != len(s.Study.Cursor) {
			return fmt.Errorf("%w: cursor names %d engines, prefix holds %d", ErrCheckpointCorrupt, len(s.Study.Cursor), len(counts))
		}
		for name, n := range s.Study.Cursor {
			if counts[name] != n {
				return fmt.Errorf("%w: cursor says %s=%d but prefix holds %d", ErrCheckpointCorrupt, name, n, counts[name])
			}
		}
	case "sweep":
		if s.Sweep == nil {
			return fmt.Errorf("%w: sweep snapshot has no sweep state", ErrCheckpointCorrupt)
		}
		for i := range s.Sweep.Cells {
			c := &s.Sweep.Cells[i]
			if c.Done && len(c.Iterations) > 0 {
				return fmt.Errorf("%w: cell %s seed=%d is done but still carries a prefix", ErrCheckpointCorrupt, c.Scenario, c.Seed)
			}
			if slices.Contains(c.Iterations, nil) {
				return fmt.Errorf("%w: null iteration in cell %s seed=%d prefix", ErrCheckpointCorrupt, c.Scenario, c.Seed)
			}
		}
	default:
		return fmt.Errorf("%w: unknown snapshot kind %q", ErrCheckpointCorrupt, s.Kind)
	}
	return nil
}

// Load reads and verifies a checkpoint. It returns fs.ErrNotExist
// (unwrapped check via errors.Is) when no checkpoint exists,
// ErrCheckpointCorrupt for any structural damage, and
// ErrCheckpointVersion for files in any other format revision.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Decode verifies and parses checkpoint bytes (the file form Load
// reads; split out so fuzzing can drive it directly).
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCheckpointCorrupt, len(data), headerSize)
	}
	if [4]byte(data[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != FormatVersion {
		return nil, fmt.Errorf("%w: version %d (this release reads %d)", ErrCheckpointVersion, v, FormatVersion)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, file holds %d", ErrCheckpointCorrupt, n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[16:20]); got != want {
		return nil, fmt.Errorf("%w: payload CRC %08x, header says %08x", ErrCheckpointCorrupt, got, want)
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Remove deletes a checkpoint file, tolerating its absence — the
// completion path of a successful run.
func Remove(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("checkpoint: remove %s: %w", path, err)
	}
	return nil
}

// HashConfig fingerprints a configuration as the hex SHA-256 of its
// canonical JSON encoding (Go marshals map keys sorted, so equal
// configs hash equally regardless of construction order). Callers pass
// a digest struct holding every field that influences output bytes —
// and nothing that does not, so e.g. parallelism may change between a
// kill and its resume.
func HashConfig(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("checkpoint: hash config: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
