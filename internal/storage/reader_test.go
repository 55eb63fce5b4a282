package storage

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/wire"
)

// drain returns every change rd holds, failing the test on a decode error.
func drain(t testing.TB, rd *Reader) []Change {
	t.Helper()
	var out []Change
	for {
		c, ok, err := rd.Next()
		if err != nil {
			t.Fatalf("Reader.Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, c)
	}
}

// readChanges reads raw — a run of complete frames whose first byte sits at
// from — through a Reader.
func readChanges(t testing.TB, from Position, raw []byte) []Change {
	t.Helper()
	rd := NewReader(from)
	rd.Feed(raw)
	out := drain(t, rd)
	if want := from.Offset + int64(len(raw)); rd.Position().Offset != want {
		t.Fatalf("reader stopped at %d of %d: trailing partial frame or open bracket", rd.Position().Offset, want)
	}
	return out
}

// logRecords returns the number of records in the log file at path.
func logRecords(t testing.TB, path string) uint64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewReader(Position{})
	rd.Feed(raw)
	drain(t, rd)
	return rd.Records()
}

// tornHugeHeader is a frame header claiming a 4 GiB payload, then two bytes.
var tornHugeHeader = []byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x03, 0x04, 0x09, 0x09}

// TestOpenTornHugeHeaderAllocatesLittle: the open-time scan is the bounded
// decoder, so a torn header claiming 4 GiB is a torn tail, not an allocation.
func TestOpenTornHugeHeaderAllocatesLittle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path)
	must(t, err)
	must(t, l.Append(Record{Op: "create_hierarchy", Target: "D"}))
	must(t, l.Append(Record{Op: "add_class", Target: "D", Args: []string{"C"}}))
	must(t, l.Close())
	valid, err := os.ReadFile(path)
	must(t, err)
	must(t, os.WriteFile(path, append(valid[:len(valid):len(valid)], tornHugeHeader...), 0o644))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var got []Change
	l, err = OpenLogFS(OsFS{}, path, NewReader(Position{}), func(c Change) error { got = append(got, c); return nil })
	runtime.ReadMemStats(&after)
	must(t, err)
	defer l.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32<<20 {
		t.Fatalf("open allocated %d MiB", alloc>>20)
	}
	if len(got) != 2 || got[1].Ops[0].Values[0] != "C" {
		t.Fatalf("recovered %+v, want the two records", got)
	}
	if left, err := os.ReadFile(path); err != nil || len(left) != len(valid) {
		t.Fatalf("tail not truncated: %d bytes, want %d (%v)", len(left), len(valid), err)
	}
}

// TestStageRefusesOversizeRecord: a writer cannot log what no reader accepts.
func TestStageRefusesOversizeRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path)
	must(t, err)
	defer l.Close()
	big := Record{Op: "assert", Target: "R", Args: []string{strings.Repeat("x", maxStreamFrame)}}
	if _, err := l.Stage(Record{Op: "create_hierarchy", Target: "D"}, big); err == nil {
		t.Fatal("oversize record staged")
	}
	if recs, _ := l.Stats(); recs != 0 {
		t.Fatalf("refused Stage left %d records staged", recs)
	}
	must(t, l.Append(Record{Op: "create_hierarchy", Target: "D"}))
	if n := logRecords(t, path); n != 1 {
		t.Fatalf("log holds %d records, want 1", n)
	}
}

// countingFS counts the bytes read from WAL files.
type countingFS struct {
	FS
	walRead *int64
}

func (c countingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal") {
		return f, err
	}
	return countingFile{f, c.walRead}, nil
}

type countingFile struct {
	File
	n *int64
}

func (c countingFile) Read(p []byte) (int, error) {
	n, err := c.File.Read(p)
	*c.n += int64(n)
	return n, err
}

// frameEnds returns the offset just past every frame of raw.
func frameEnds(raw []byte) []int {
	var ends []int
	for off := 0; off < len(raw); {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
		ends = append(ends, off)
	}
	return ends
}

// TestOneChangeStream is the reader's contract: one WAL — every op kind, a
// committed bracket, a one-op bracket that flips a sign, an aborted bracket,
// an empty bracket, new_term records, a checkpoint rotation — read by
// reopen, by a Tailer restarted from every position it yielded, and the way
// a replica reads it (the same bytes in 1-byte, frame-aligned and random
// chunks): identical changes, identical positions, identical Fingerprint.
func TestOneChangeStream(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := OpenOptions(dir, Options{FS: ffs})
	must(t, err)
	bare := func(kind, target string, values ...string) { t.Helper(); must(t, s.apply(kind, target, values...)) }
	tx := func(ops ...catalog.TxOp) error { return s.ApplyTx(ops) }
	aborted := func() {
		t.Helper()
		if tx(catalog.TxOp{Kind: "deny", Relation: "R", Values: []string{"i1"}},
			catalog.TxOp{Kind: "assert", Relation: "Nope", Values: []string{"i1"}}) == nil {
			t.Fatal("bracket on a missing relation committed")
		}
	}
	bare("create_hierarchy", "D")
	bare("add_class", "D", "C1")
	bare("add_class", "D", "C2", "C1")
	bare("add_class", "D", "C3", "C1")
	bare("add_instance", "D", "i1", "C2")
	bare("add_instance", "D", "i2", "C3")
	bare("add_instance", "D", "i3", "C1")
	bare("add_edge", "D", "C2", "i2")
	bare("prefer", "D", "C2", "C3")
	bare("create_relation", "R", "X", "D")
	bare("assert", "R", "C1")
	bare("deny", "R", "C2")
	bare("retract", "R", "C2")
	must(t, tx(catalog.TxOp{Kind: "assert", Relation: "R", Values: []string{"C3"}},
		catalog.TxOp{Kind: "deny", Relation: "R", Values: []string{"i2"}}))
	must(t, tx(catalog.TxOp{Kind: "deny", Relation: "R", Values: []string{"C3"}})) // flips +C3
	aborted()
	mark, err := s.log.Stage(Record{Op: OpTxBegin}, Record{Op: OpTxCommit}) // no writer logs one
	must(t, err)
	must(t, s.log.Sync(mark))
	must(t, s.AdoptTerm(3))
	bare("set_mode", "R", "on-path")
	bare("set_policy", "", "warn")
	bare("consolidate", "R")
	bare("explicate", "R", "X")
	bare("create_relation", "Tmp", "Y", "D")
	bare("drop_relation", "Tmp")
	bare("add_instance", "D", "doomed", "C1")
	bare("drop_node", "D", "doomed")
	// Rotate, keeping the retired epoch's file so every position stays
	// readable.
	ffs.FailRemove(true)
	if err := s.Checkpoint(); !errors.Is(err, ErrCheckpointGC) {
		t.Fatalf("Checkpoint = %v, want ErrCheckpointGC", err)
	}
	ffs.FailRemove(false)
	bare("add_class", "D", "C4", "C1")
	must(t, tx(catalog.TxOp{Kind: "assert", Relation: "R", Values: []string{"C4"}},
		catalog.TxOp{Kind: "deny", Relation: "R", Values: []string{"i3"}}))
	aborted()
	must(t, s.AdoptTerm(4))
	bare("retract", "R", "i3")

	live := fingerprint(s.Database())
	end := Position{Epoch: 1}
	_, end.Offset = s.Position()
	raws := make([][]byte, 2)
	for e := range raws {
		raws[e], err = os.ReadFile(filepath.Join(dir, walName(uint64(e))))
		must(t, err)
	}

	// chunked reads both epochs the way a replica does — feed, drain, rotate
	// at the ROTATE frame — cutting the bytes wherever cuts says.
	chunked := func(cuts func(raw []byte) []int) (changes []Change, rd *Reader) {
		rd = NewReader(Position{})
		for e, raw := range raws {
			if e > 0 {
				must(t, rd.Rotate(uint64(e)))
			}
			from := 0
			for _, to := range append(cuts(raw), len(raw)) {
				rd.Feed(raw[from:to])
				changes = append(changes, drain(t, rd)...)
				from = to
			}
		}
		return changes, rd
	}
	ref, rd := chunked(func([]byte) []int { return nil })
	if rd.Position() != end {
		t.Fatalf("reader ended at %+v, store at %+v", rd.Position(), end)
	}
	if records, _ := s.LogStats(); rd.Records() <= records {
		t.Fatalf("reader counted %d records over both epochs, epoch 1 alone staged %d", rd.Records(), records)
	}

	// The shapes the reader promises.
	var bareOps, brackets, flips, empties int
	var terms []uint64
	for _, c := range ref {
		switch {
		case c.Term != 0:
			terms = append(terms, c.Term)
		case len(c.Ops) == 0:
			empties++
		case c.Ops[0].Bare:
			bareOps++
		case len(c.Ops) == 1:
			flips++
		default:
			brackets++
		}
	}
	// Two aborted brackets, one empty bracket and the rotation: four changes
	// with no ops.
	if bareOps != 23 || brackets != 2 || flips != 1 || empties != 4 || !reflect.DeepEqual(terms, []uint64{3, 4}) {
		t.Fatalf("read %d bare ops, %d brackets, %d one-op brackets, %d op-less changes, terms %v", bareOps, brackets, flips, empties, terms)
	}
	kinds := map[string]bool{}
	for _, c := range ref {
		for _, o := range c.Ops {
			kinds[o.Kind] = true
		}
	}
	if len(kinds) != 15 {
		t.Fatalf("the log covers %d op kinds, want all 15: %v", len(kinds), kinds)
	}

	// (c) Any chunking reads the same changes and rebuilds the same state.
	rng := rand.New(rand.NewSource(1))
	for name, cuts := range map[string]func([]byte) []int{
		"1-byte": func(raw []byte) (c []int) {
			for i := 1; i < len(raw); i++ {
				c = append(c, i)
			}
			return c
		},
		"frame-aligned": frameEnds,
		"random": func(raw []byte) (c []int) {
			for i := rng.Intn(40); i < len(raw); i += 1 + rng.Intn(40) {
				c = append(c, i)
			}
			return c
		},
	} {
		got, _ := chunked(cuts)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s chunks read different changes:\n got %+v\nwant %+v", name, got, ref)
		}
		db := catalog.New()
		for _, c := range got {
			must(t, c.Apply(db))
		}
		if fp := fingerprint(db); fp != live {
			t.Fatalf("%s chunks rebuilt a different state\n got: %s\nwant: %s", name, fp, live)
		}
	}

	// (b) A Tailer from the start yields the same changes, and one restarted
	// at any position it yielded yields exactly the suffix.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := -1; i < len(ref); i++ {
		from := Position{}
		if i >= 0 {
			from = ref[i].Pos
		}
		tl := TailFrom(s, from)
		for j := i + 1; j < len(ref); j++ {
			c, err := tl.Next(ctx)
			if err != nil || !reflect.DeepEqual(c, ref[j]) {
				t.Fatalf("tailer from %+v, change %d: %+v (%v), want %+v", from, j, c, err, ref[j])
			}
		}
		if tl.Position() != end {
			t.Fatalf("tailer from %+v ended at %+v, want %+v", from, tl.Position(), end)
		}
	}
	must(t, s.Close())

	// (a) Reopen reads the current epoch's file: the same changes, each WAL
	// byte once, the same state, position and term.
	var reopened []Change
	copyPath := filepath.Join(t.TempDir(), "copy.log")
	must(t, os.WriteFile(copyPath, raws[1], 0o644))
	l, err := OpenLogFS(OsFS{}, copyPath, NewReader(Position{Epoch: 1}), func(c Change) error {
		reopened = append(reopened, c)
		return nil
	})
	must(t, err)
	must(t, l.Close())
	var suffix []Change
	for _, c := range ref {
		if (Position{Epoch: 1}).Before(c.Pos) {
			suffix = append(suffix, c)
		}
	}
	if !reflect.DeepEqual(reopened, suffix) {
		t.Fatalf("reopen read different changes:\n got %+v\nwant %+v", reopened, suffix)
	}
	var walRead int64
	s2, err := OpenOptions(dir, Options{FS: countingFS{OsFS{}, &walRead}})
	must(t, err)
	defer s2.Close()
	if walRead != int64(len(raws[1])) {
		t.Fatalf("reopen read %d WAL bytes of a %d-byte log", walRead, len(raws[1]))
	}
	if fp := fingerprint(s2.Database()); fp != live {
		t.Fatalf("reopen rebuilt a different state\n got: %s\nwant: %s", fp, live)
	}
	if e, off := s2.Position(); (Position{e, off}) != end || s2.Term() != 4 {
		t.Fatalf("reopened at %d/%d term %d, want %+v term 4", e, off, s2.Term(), end)
	}
}

// TestReaderRefusesMisplacedMarkers: a bracket marker that does not fit is
// corruption for every consumer, reopen included — and a bad frame at the end
// of a file is only a torn tail.
func TestReaderRefusesMisplacedMarkers(t *testing.T) {
	for name, recs := range map[string][]Record{
		"nested begin":       {{Op: OpTxBegin}, {Op: OpTxBegin}},
		"commit outside":     {{Op: OpTxCommit}},
		"new_term in tx":     {{Op: OpTxBegin}, {Op: OpNewTerm, Args: []string{"2"}}},
		"malformed new_term": {{Op: OpNewTerm, Args: []string{"two"}}},
	} {
		var raw []byte
		for _, rec := range recs {
			var err error
			raw, err = encodeFrame(raw, rec)
			must(t, err)
		}
		rd := NewReader(Position{})
		rd.Feed(raw)
		if _, _, err := rd.Next(); !errors.Is(err, ErrCorrupt) || errors.Is(err, errBadFrame) {
			t.Errorf("%s: Next = %v, want ErrCorrupt (not a bad frame)", name, err)
		}
		path := filepath.Join(t.TempDir(), "wal.log")
		must(t, os.WriteFile(path, raw, 0o644))
		if l, err := OpenLog(path); !errors.Is(err, ErrCorrupt) {
			l.Close()
			t.Errorf("%s: OpenLog = %v, want ErrCorrupt", name, err)
		}
	}
}

// readFresh feeds data to rd one byte at a time, forgetting its kept
// decoder before each byte: a frame completes on the byte that ends it, so
// every frame goes through a fresh gob decoder. It is the reference the
// kept decoder must match.
func readFresh(rd *Reader, data []byte, into []Change) ([]Change, error) {
	for i := range data {
		rd.Feed(data[i : i+1])
		rd.dec = nil
		for {
			c, ok, err := rd.Next()
			if err != nil {
				return into, err
			}
			if !ok {
				break
			}
			into = append(into, c)
		}
	}
	return into, nil
}

// readKept feeds data to rd in one piece and reads every change it holds.
func readKept(rd *Reader, data []byte, into []Change) ([]Change, error) {
	rd.Feed(data)
	for {
		c, ok, err := rd.Next()
		if err != nil || !ok {
			return into, err
		}
		into = append(into, c)
	}
}

// gobFrame frames a fresh gob encoding of v as a WAL record is framed.
func gobFrame(t testing.TB, v any) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatal(err)
	}
	return framePayload(payload.Bytes())
}

// framePayload adds the length and CRC header to a payload.
func framePayload(p []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	return append(out, p...)
}

// gobUintBytes encodes u as gob encodes an unsigned integer.
func gobUintBytes(u uint64) []byte {
	if u < 0x80 {
		return []byte{byte(u)}
	}
	b := binary.BigEndian.AppendUint64(nil, u)
	for b[0] == 0 {
		b = b[1:]
	}
	return append([]byte{byte(-len(b))}, b...)
}

// gobIntBytes encodes i as gob encodes a signed integer.
func gobIntBytes(i int64) []byte {
	if i < 0 {
		return gobUintBytes(uint64(^i)<<1 | 1)
	}
	return gobUintBytes(uint64(i) << 1)
}

// gobDefinedID returns the type id a gob payload's first message defines.
func gobDefinedID(t *testing.T, p []byte) int64 {
	t.Helper()
	_, w := gobUint(p)
	u, iw := gobUint(p[w:])
	if w == 0 || iw == 0 || u&1 == 0 {
		t.Fatalf("payload %x does not open with a type definition", p)
	}
	return int64(u>>1) + 1
}

// gobRetype rewrites a gob payload so that the type it defines under id
// from is defined, and its value sent, under id to.
func gobRetype(p []byte, from, to int64) []byte {
	var out []byte
	for at := 0; at < len(p); {
		count, w := gobUint(p[at:])
		msg := p[at+w : at+w+int(count)]
		at += w + int(count)
		u, iw := gobUint(msg)
		id, body := int64(u>>1), msg[iw:]
		if u&1 == 1 {
			id = ^id
			body = bytes.ReplaceAll(body, gobIntBytes(from), gobIntBytes(to))
		}
		switch id {
		case from:
			id = to
		case -from:
			id = -to
		}
		msg = append(gobIntBytes(id), body...)
		out = append(append(out, gobUintBytes(uint64(len(msg)))...), msg...)
	}
	return out
}

// TestReaderKeptDecoderMatchesFresh: the kept decoder yields exactly the
// changes, error and position a fresh decoder per frame yields — over
// frames whose type definitions alternate between two encodings of the
// record (the same fields under another type name), over the stream a
// primary of commit 8332a0f shipped (repl's pr15_primary_stream fixture),
// over value messages corrupted after a good definition prefix, one that
// still decodes and one that does not, and without them, and over another
// type's definitions under the record's type id.
func TestReaderKeptDecoderMatchesFresh(t *testing.T) {
	// renamed has Record's fields under another name: gob sends it with
	// different type definitions, and decodes it into a Record all the same.
	type renamed struct {
		Op     Op
		Target string
		Args   []string
	}
	rec := func(op Op, target string, args ...string) Record { return Record{Op: op, Target: target, Args: args} }
	frame := func(r Record, other bool) []byte {
		if other {
			return gobFrame(t, renamed(r))
		}
		return gobFrame(t, r)
	}
	var twoPrefixes []byte
	for i, r := range []Record{
		rec("create_hierarchy", "D"), rec("add_class", "D", "c", "D"),
		rec(OpTxBegin, ""), rec("assert", "R", "a", "b"), rec("deny", "R", "c", "d"), rec(OpTxCommit, ""),
		rec("assert", "R", "e"), rec(OpNewTerm, "", "3"), rec("retract", "R", "a", "b"),
		rec(OpTxBegin, ""), rec("assert", "R", "x"), rec(OpTxAbort, ""), rec("drop_relation", "R"),
	} {
		twoPrefixes = append(twoPrefixes, frame(r, i%3 == 1)...)
	}
	if want := 13; len(frameEnds(twoPrefixes)) != want {
		t.Fatalf("built %d frames, want %d", len(frameEnds(twoPrefixes)), want)
	}

	// corrupt re-frames a good record's payload with one byte of its value
	// message (off bytes into it) set to b.
	corrupt := func(r Record, off int, b byte) []byte {
		p := append([]byte(nil), frame(r, false)[8:]...)
		at, ok := gobValueAt(p)
		if !ok {
			t.Fatalf("no value message in %x", p)
		}
		p[at+off] = b
		return framePayload(p)
	}
	good := rec("assert", "R", "a", "b")
	target := bytes.Index(frame(good, false)[8:], []byte("R"))
	at, _ := gobValueAt(frame(good, false)[8:])
	var corrupted []byte
	corrupted = append(corrupted, frame(good, false)...)
	corrupted = append(corrupted, corrupt(good, target-at, 'S')...) // still decodes
	corrupted = append(corrupted, frame(good, false)...)
	corrupted = append(corrupted, corrupt(good, 2, 0x7f)...) // no such field
	// A value message alone: a fresh decoder has no definition of its type.
	bare := append(frame(good, false), framePayload(frame(good, false)[8+at:])...)

	// swapped has Record's fields in another order. Sent under Record's
	// type id, its value message reads as another record to a decoder
	// primed with Record's definitions: only the definitions tell them apart.
	type swapped struct {
		Target string
		Op     Op
		Args   []string
	}
	recordID := gobDefinedID(t, frame(good, false)[8:])
	sw := gobFrame(t, swapped{good.Target, good.Op, good.Args})[8:]
	forged := framePayload(gobRetype(sw, gobDefinedID(t, sw), recordID))
	var collision []byte
	collision = append(collision, frame(good, false)...)
	collision = append(collision, forged...)
	collision = append(collision, frame(good, false)...)
	goodOp := catalog.TxOp{Kind: string(good.Op), Relation: good.Target, Values: good.Args, Bare: true}

	// The primary's stream: SHIP chunks cut mid-record, with a ROTATE.
	raw, err := os.ReadFile("../repl/testdata/pr15_primary_stream.bin")
	must(t, err)
	recorded, err := os.ReadFile("../repl/testdata/pr15_primary_stream.txt")
	must(t, err)
	var end Position
	if _, err := fmt.Sscanf(string(recorded), "%d %d", &end.Epoch, &end.Offset); err != nil {
		t.Fatal(err)
	}
	type step struct {
		feed   []byte
		rotate bool
		epoch  uint64
	}
	var shipped []step
	br := bufio.NewReader(bytes.NewReader(raw))
	for {
		f, err := wire.ReadFrame(br, 1<<20)
		if err == io.EOF {
			break
		}
		must(t, err)
		switch f.Type {
		case wire.TypeShip:
			_, chunk, err := wire.ParseShip(f.Payload)
			must(t, err)
			shipped = append(shipped, step{feed: chunk})
		case wire.TypeRotate:
			at, err := wire.ParseStreamPos(f.Payload)
			must(t, err)
			shipped = append(shipped, step{rotate: true, epoch: at.Epoch})
		}
	}

	for _, tc := range []struct {
		name    string
		steps   []step
		end     Position
		wantErr bool
		ops     []catalog.TxOp // when set, the ops the changes must carry
	}{
		{"two type prefixes", []step{{feed: twoPrefixes}}, Position{Offset: int64(len(twoPrefixes))}, false, nil},
		{"pr15 primary stream", shipped, end, false, nil},
		{"corrupt value messages", []step{{feed: corrupted}}, Position{Offset: int64(len(frame(good, false)) * 3)}, true, nil},
		{"value message without definitions", []step{{feed: bare}}, Position{Offset: int64(len(frame(good, false)))}, true, nil},
		{"another type under the record's id", []step{{feed: collision}}, Position{Offset: int64(len(collision))}, false,
			[]catalog.TxOp{goodOp, goodOp, goodOp}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			read := func(feed func(*Reader, []byte, []Change) ([]Change, error)) ([]Change, error, Position) {
				rd := NewReader(Position{})
				var out []Change
				for _, s := range tc.steps {
					var err error
					if s.rotate {
						err = rd.Rotate(s.epoch)
					} else {
						out, err = feed(rd, s.feed, out)
					}
					if err != nil {
						return out, err, rd.Position()
					}
				}
				out, err := feed(rd, nil, out)
				return out, err, rd.Position()
			}
			want, wantErr, wantPos := read(readFresh)
			got, gotErr, gotPos := read(readKept)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kept decoder read %+v, fresh decoders %+v", got, want)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotPos != wantPos {
				t.Fatalf("kept decoder ended with %v at %+v, fresh decoders with %v at %+v", gotErr, gotPos, wantErr, wantPos)
			}
			if (gotErr != nil) != tc.wantErr || gotPos != tc.end || len(got) == 0 {
				t.Fatalf("read %d changes, ending with %v at %+v; want an error %v at %+v", len(got), gotErr, gotPos, tc.wantErr, tc.end)
			}
			if tc.ops != nil {
				var ops []catalog.TxOp
				for _, c := range got {
					ops = append(ops, c.Ops...)
				}
				if !reflect.DeepEqual(ops, tc.ops) {
					t.Fatalf("read ops %+v, want %+v", ops, tc.ops)
				}
			}
		})
	}
}

// TestReaderDecodeAllocs: with its decoder kept, a Reader decodes a record
// in a handful of allocations, not the hundred and more that compiling the
// Record type again costs.
func TestReaderDecodeAllocs(t *testing.T) {
	const n = 1000
	var raw []byte
	for i := 0; i < n; i++ {
		var err error
		raw, err = encodeFrame(raw, Record{Op: "assert", Target: "Flies", Args: []string{fmt.Sprintf("bird%d", i), "sky"}})
		must(t, err)
	}
	var changes int
	perRecord := testing.AllocsPerRun(5, func() {
		rd := NewReader(Position{})
		rd.Feed(raw)
		changes = 0
		for {
			_, ok, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			changes++
		}
	}) / n
	if changes != n {
		t.Fatalf("read %d changes, want %d", changes, n)
	}
	t.Logf("%.1f allocations per decoded record", perRecord)
	if perRecord > 20 {
		t.Errorf("%.1f allocations per decoded record, want at most 20", perRecord)
	}
}
