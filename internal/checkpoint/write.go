package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync/atomic"
	"time"

	"searchads/internal/atomicfile"
	"searchads/internal/crawler"
	"searchads/internal/telemetry"
)

// Prefix is an iteration prefix in encoded form: each iteration's
// json.Marshal bytes, joined by commas. Writer.Append encodes each
// iteration once, so a checkpoint write copies the cached bytes instead
// of re-encoding every iteration crawled so far. The buffer grows by
// doubling, so a prefix allocates about twice its final size in all.
// The zero Prefix is empty and ready to use. A Prefix is not safe for
// concurrent use, but the bytes Bytes returns may be read while an
// Append to it runs.
type Prefix struct {
	buf    []byte         // each iteration's JSON followed by ','
	cursor map[string]int // engine → iterations appended
}

// iterationRoom is the free space add makes before it encodes an
// iteration: more than most iterations need, so the buffer regrows by
// doubling, not by append's quarter steps.
const iterationRoom = 16 << 10

// add encodes its onto the end of the prefix, or on error leaves the
// prefix as it was.
func (p *Prefix) add(its ...*crawler.Iteration) error {
	buf := p.buf
	for _, it := range its {
		if cap(buf)-len(buf) < iterationRoom {
			buf = append(make([]byte, 0, 2*cap(buf)+iterationRoom), buf...)
		}
		var err error
		if buf, err = crawler.AppendIteration(buf, it); err != nil {
			return fmt.Errorf("checkpoint: encode iteration: %w", err)
		}
		buf = append(buf, ',')
	}
	p.buf = buf
	if p.cursor == nil {
		p.cursor = make(map[string]int)
	}
	for _, it := range its {
		p.cursor[it.Engine]++
	}
	return nil
}

// Bytes returns the appended iterations' encodings joined by commas,
// or nil when none were appended. Appending only ever writes past the
// end of the returned slice, so its bytes never change.
func (p *Prefix) Bytes() []byte {
	n := len(p.buf) - 1
	if n < 0 {
		return nil
	}
	return p.buf[:n:n]
}

// Writer writes one run's checkpoint file. Each write accounts itself
// to Telemetry when it is set: the checkpoint-write stage's wall time,
// the write and byte counters, and one "checkpoint" event. A Writer is
// safe for concurrent use but must not be copied after first use.
type Writer struct {
	Path       string
	ConfigHash string
	Telemetry  *telemetry.Registry // nil = off

	encoding atomic.Int64 // ns spent in Append since the last write
}

// Append encodes its onto p. Each iteration's bytes are those of
// json.Marshal(it), written in one pass with no reflection by
// crawler.AppendIteration, so a written checkpoint equals the header
// framing json.Marshal of its snapshot. A nil iteration, which
// json.Marshal would write as null and Load refuses, is an error, and
// then p is left as it was. With Telemetry set, Append times the
// encoding and adds it to the next write's wall time: encoding is the
// part of a checkpoint write that happens as each iteration arrives.
func (w *Writer) Append(p *Prefix, its ...*crawler.Iteration) error {
	if w.Telemetry == nil {
		return p.add(its...)
	}
	start := time.Now()
	err := p.add(its...)
	w.encoding.Add(int64(time.Since(start)))
	return err
}

// WriteStudy writes a study snapshot whose prefix is p.
func (w *Writer) WriteStudy(p *Prefix) error {
	cursor := p.cursor
	if cursor == nil {
		cursor = map[string]int{}
	}
	s := &Snapshot{Kind: "study", ConfigHash: w.ConfigHash, Study: &StudyState{Cursor: cursor}}
	return w.write(s, p.Bytes(), nil)
}

// WriteSweep writes a sweep snapshot. cells hold no iterations; the
// in-flight prefix of cells[i] is prefixes[i], the Bytes of its Prefix
// (nil for pending and completed cells).
func (w *Writer) WriteSweep(cells []CellState, prefixes [][]byte) error {
	s := &Snapshot{Kind: "sweep", ConfigHash: w.ConfigHash, Sweep: &SweepState{Cells: cells}}
	return w.write(s, nil, prefixes)
}

// Save atomically writes the snapshot: encode, CRC, temp file in the
// destination directory, fsync, rename, directory fsync. Either the
// old or the new checkpoint survives a kill at any instant. The bytes
// equal the header framing json.Marshal(s).
func Save(path string, s *Snapshot) error {
	w := &Writer{Path: path}
	frame := *s
	var study []byte
	var cells [][]byte
	if s.Study != nil {
		st := *s.Study
		var p Prefix
		if err := w.Append(&p, st.Iterations...); err != nil {
			return err
		}
		study = p.Bytes()
		st.Iterations = st.Iterations[:0] // keeps a nil prefix nil
		frame.Study = &st
	}
	if s.Sweep != nil {
		cs := slices.Clone(s.Sweep.Cells) // keeps nil cells nil
		cells = make([][]byte, len(cs))
		for i := range cs {
			var p Prefix
			if err := w.Append(&p, cs[i].Iterations...); err != nil {
				return err
			}
			cells[i] = p.Bytes()
			cs[i].Iterations = nil
		}
		frame.Sweep = &SweepState{Cells: cs}
	}
	return w.write(&frame, study, cells)
}

// write frames and writes the snapshot s, whose iteration slices are
// empty, with the encoded prefixes spliced in where those slices go.
func (w *Writer) write(s *Snapshot, study []byte, cells [][]byte) error {
	if w.Telemetry == nil {
		_, err := writeFile(w.Path, s, study, cells)
		return err
	}
	start := time.Now()
	n, err := writeFile(w.Path, s, study, cells)
	wall := time.Since(start) + time.Duration(w.encoding.Swap(0))
	w.Telemetry.ObserveWall(telemetry.StageCheckpointWrite, wall)
	w.Telemetry.Inc(telemetry.CounterCheckpointWrites)
	w.Telemetry.Add(telemetry.CounterCheckpointBytes, uint64(n))
	ev := telemetry.Event{Type: "checkpoint", Bytes: n, WallMicros: wall.Microseconds()}
	if err != nil {
		ev.Err = err.Error()
	}
	w.Telemetry.Emit(ev)
	return err
}

// writeFile writes the framed snapshot and returns the file size (0 on
// error).
func writeFile(path string, s *Snapshot, study []byte, cells [][]byte) (int, error) {
	f := file{cur: make([]byte, headerSize, 1024)}
	if err := f.snapshot(s, study, cells); err != nil {
		return 0, err
	}
	chunks, size := f.finish()
	if err := atomicfile.WriteFile(path, chunks...); err != nil {
		return 0, err
	}
	return size, nil
}

// file accumulates a checkpoint file as chunks: small encoded pieces
// are appended to an owned buffer, cached prefixes are referenced
// between them without a copy.
type file struct {
	chunks [][]byte
	cur    []byte // the owned chunk being appended to
}

func (f *file) add(b []byte) { f.cur = append(f.cur, b...) }

func (f *file) ref(b []byte) {
	f.chunks = append(f.chunks, f.cur, b)
	f.cur = nil
}

// finish fills the header into the first chunk and returns the chunks
// and their total size.
func (f *file) finish() ([][]byte, int) {
	chunks := append(f.chunks, f.cur)
	crc := crc32.Update(0, crc32.IEEETable, chunks[0][headerSize:])
	size := len(chunks[0])
	for _, c := range chunks[1:] {
		crc = crc32.Update(crc, crc32.IEEETable, c)
		size += len(c)
	}
	h := chunks[0][:headerSize]
	copy(h[0:4], magic[:])
	binary.LittleEndian.PutUint32(h[4:8], FormatVersion)
	binary.LittleEndian.PutUint64(h[8:16], uint64(size-headerSize))
	binary.LittleEndian.PutUint32(h[16:20], crc)
	return chunks, size
}

// errFrame reports a snapshot whose encoding has no place for a prefix,
// such as one holding both study and sweep state.
var errFrame = errors.New("checkpoint: snapshot shape cannot hold an encoded prefix")

// The splice points. A prefix goes where json.Marshal puts the
// one-element placeholder [null]: before it comes the encoding up to
// "[", after it the tail that follows "null".
var (
	placeholder = []*crawler.Iteration{nil}
	rootTail    = []byte("]}}") // closes a study's iterations or a sweep's cells
	cellTail    = []byte("]}")  // closes a sweep cell's iterations
)

// snapshot appends the payload: s's encoding with the study prefix or
// the per-cell prefixes in place of its empty iteration slices.
func (f *file) snapshot(s *Snapshot, study []byte, cells [][]byte) error {
	if len(study) > 0 {
		st := *s.Study
		st.Iterations = placeholder
		framed := *s
		framed.Study = &st
		return f.splice(&framed, rootTail, study)
	}
	inFlight := false
	for _, b := range cells {
		inFlight = inFlight || len(b) > 0
	}
	if !inFlight {
		data, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("checkpoint: marshal snapshot: %w", err)
		}
		f.add(data)
		return nil
	}
	if s.Study != nil {
		return errFrame
	}
	head, err := json.Marshal(&Snapshot{Kind: s.Kind, ConfigHash: s.ConfigHash, Sweep: &SweepState{Cells: []CellState{}}})
	if err != nil {
		return fmt.Errorf("checkpoint: marshal snapshot: %w", err)
	}
	head, ok := bytes.CutSuffix(head, rootTail) // leaves `..."cells":[`
	if !ok {
		return errFrame
	}
	f.add(head)
	for i := range s.Sweep.Cells {
		if i > 0 {
			f.add([]byte{','})
		}
		c := s.Sweep.Cells[i]
		if len(cells[i]) == 0 {
			data, err := json.Marshal(&c)
			if err != nil {
				return fmt.Errorf("checkpoint: marshal cell: %w", err)
			}
			f.add(data)
			continue
		}
		c.Iterations = placeholder
		if err := f.splice(&c, cellTail, cells[i]); err != nil {
			return err
		}
	}
	f.add(rootTail)
	return nil
}

// splice appends v's encoding with prefix in place of the placeholder
// element that ends it, followed by tail.
func (f *file) splice(v any, tail, prefix []byte) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal snapshot: %w", err)
	}
	head, ok := bytes.CutSuffix(data, append([]byte("null"), tail...))
	if !ok {
		return errFrame
	}
	f.add(head)
	f.ref(prefix)
	f.add(tail)
	return nil
}
