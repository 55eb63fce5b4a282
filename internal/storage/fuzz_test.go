package storage

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpenLog: arbitrary bytes as a WAL must never crash OpenLog; the valid
// prefix must replay, and the log must stay appendable afterwards.
func FuzzOpenLog(f *testing.F) {
	// Seed with a real log prefix.
	dir, err := os.MkdirTemp("", "walfuzz-*")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	l, err := OpenLog(filepath.Join(dir, "seed.log"))
	if err != nil {
		f.Fatal(err)
	}
	_ = l.Append(Record{Op: "create_hierarchy", Target: "D"})
	_ = l.Append(Record{Op: "assert", Target: "R", Args: []string{"a", "b"}})
	_ = l.Close()
	seed, err := os.ReadFile(filepath.Join(dir, "seed.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	f.Add(append(seed[:len(seed):len(seed)], tornHugeHeader...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Add([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		fdir := t.TempDir()
		path := filepath.Join(fdir, "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(path)
		if err != nil {
			return // I/O errors are acceptable; crashes are not
		}
		defer l.Close()
		// The truncated file is exactly the validated prefix: it reads back
		// without error.
		n := logRecords(t, path)
		// The log must remain appendable and the appended record readable.
		if err := l.Append(Record{Op: "create_hierarchy", Target: "X"}); err != nil {
			t.Fatalf("append after truncation: %v", err)
		}
		if m := logRecords(t, path); m != n+1 {
			t.Fatalf("record count %d, want %d", m, n+1)
		}
	})
}

// FuzzCrashOffset: the crash-recovery property of TestCrashAtEveryOffset,
// driven by the fuzzer — a crash leaving any prefix of the workload WAL
// must recover exactly the acknowledged boundary at or before the cut.
func FuzzCrashOffset(f *testing.F) {
	workDir, err := os.MkdirTemp("", "crashfuzz-*")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(workDir)
	bounds, wal := runCrashWorkload(f, workDir)

	f.Add(uint(0))
	f.Add(uint(len(wal)))
	f.Add(uint(len(wal) - 1))
	for _, b := range bounds {
		f.Add(uint(b.off))
		f.Add(uint(b.off) + 1)
	}

	f.Fuzz(func(t *testing.T, off uint) {
		l := int(off % uint(len(wal)+1))
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal[:l], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("crash at offset %d: reopen failed: %v", l, err)
		}
		got := fingerprint(s.Database())
		s.Close()
		if want := expectedAt(bounds, int64(l)); got != want {
			t.Fatalf("crash at offset %d: recovered state diverges\n got: %s\nwant: %s", l, got, want)
		}
	})
}

// FuzzReadSnapshot: arbitrary bytes never crash the snapshot reader.
func FuzzReadSnapshot(f *testing.F) {
	dir, err := os.MkdirTemp("", "snapfuzz-*")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.hrdb")
	spec := DatabaseSpec{Hierarchies: []HierarchySpec{{Domain: "D"}}}
	if err := WriteSnapshot(path, spec); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:8])
	f.Add([]byte("HRDB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		fdir := t.TempDir()
		p := filepath.Join(fdir, "s.hrdb")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := ReadSnapshot(p)
		if err != nil {
			return
		}
		// A successfully read snapshot must build (or fail cleanly).
		_, _ = BuildDatabase(spec)
	})
}

// FuzzReader: the one WAL reader must never crash on arbitrary bytes, and
// neither chunking nor the kept gob decoder may be visible — feeding the
// same bytes in fuzzer-chosen slices, and decoding every frame with a fresh
// decoder, must yield exactly the changes, positions and record counts a
// single feed yields. This is the layer recovery, every replica (after a
// chaos-severed reconnect) and every view trust.
func FuzzReader(f *testing.F) {
	dir, err := os.MkdirTemp("", "readerfuzz-*")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	l, err := OpenLog(filepath.Join(dir, "seed.log"))
	if err != nil {
		f.Fatal(err)
	}
	_ = l.Append(Record{Op: "create_hierarchy", Target: "D"})
	_ = l.Append(Record{Op: OpTxBegin})
	_ = l.Append(Record{Op: "assert", Target: "R", Args: []string{"a", "b"}})
	_ = l.Append(Record{Op: OpTxCommit})
	_ = l.Append(Record{Op: OpNewTerm, Args: []string{"7"}})
	_ = l.Append(Record{Op: OpTxBegin})
	_ = l.Append(Record{Op: "deny", Target: "R", Args: []string{"a", "b"}})
	_ = l.Append(Record{Op: OpTxAbort})
	_ = l.Close()
	seed, err := os.ReadFile(filepath.Join(dir, "seed.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, uint8(1))
	// The same fields under another type name: other type definitions.
	type renamed struct {
		Op     Op
		Target string
		Args   []string
	}
	mixed := append(append(seed[:len(seed):len(seed)], gobFrame(f, renamed{Op: "assert", Target: "R", Args: []string{"c"}})...), seed...)
	f.Add(mixed, uint8(4))
	f.Add(seed, uint8(7))
	f.Add(seed[:len(seed)-2], uint8(3)) // torn tail
	f.Add(append(seed[:len(seed):len(seed)], tornHugeHeader...), uint8(5))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xff, 0x00, 0x01, 0x7f}, uint8(2))

	readAll := func(rd *Reader, into []Change) ([]Change, bool) {
		for {
			c, ok, err := rd.Next()
			if err != nil {
				return into, true
			}
			if !ok {
				return into, false
			}
			into = append(into, c)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, stride uint8) {
		if len(data) > 1<<16 {
			return
		}
		// Reference: one feed of the whole buffer.
		ref := NewReader(Position{Epoch: 2, Offset: 100})
		ref.Feed(data)
		want, refFailed := readAll(ref, nil)

		// Same bytes in stride-sized slices.
		step := int(stride)%13 + 1
		rd := NewReader(Position{Epoch: 2, Offset: 100})
		var got []Change
		failed := false
		for off := 0; off < len(data) && !failed; off += step {
			rd.Feed(data[off:min(off+step, len(data))])
			got, failed = readAll(rd, got)
		}

		// Reference: a fresh gob decoder for every frame.
		fresh := NewReader(Position{Epoch: 2, Offset: 100})
		each, err := readFresh(fresh, data, nil)
		if (err != nil) != refFailed || !reflect.DeepEqual(each, want) {
			t.Fatalf("kept decoder read %+v (failed=%v), fresh decoders %+v (%v)", want, refFailed, each, err)
		}
		if fresh.Position() != ref.Position() || fresh.Records() != ref.Records() || fresh.Pending() != ref.Pending() {
			t.Fatalf("kept decoder at %+v after %d records (%d pending), fresh decoders at %+v after %d (%d)",
				ref.Position(), ref.Records(), ref.Pending(), fresh.Position(), fresh.Records(), fresh.Pending())
		}

		if failed != refFailed {
			t.Fatalf("chunked read failed=%v, one-shot failed=%v (stride %d)", failed, refFailed, step)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunked read %+v, one-shot %+v (stride %d)", got, want, step)
		}
		if rd.Position() != ref.Position() || rd.Records() != ref.Records() || rd.Pending() != ref.Pending() {
			t.Fatalf("chunked reader at %+v after %d records (%d pending), one-shot at %+v after %d (%d) (stride %d)",
				rd.Position(), rd.Records(), rd.Pending(), ref.Position(), ref.Records(), ref.Pending(), step)
		}
		if p := rd.Position(); p.Epoch != 2 || p.Offset < 100 || p.Offset > 100+int64(len(data)) {
			t.Fatalf("position %+v after %d input bytes", p, len(data))
		}
		for i, c := range got {
			if c.Pos.Epoch != 2 || (i > 0 && !got[i-1].Pos.Before(c.Pos)) {
				t.Fatalf("positions not increasing: %+v", got)
			}
		}
	})
}
