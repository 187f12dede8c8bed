package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// damageRec is the payload of record lsn in the damage-table directories.
func damageRec(lsn uint64) []byte { return []byte(fmt.Sprintf("rec-%03d", lsn)) }

func writeFile(t *testing.T, fs *MemFS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create("wal/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// writeSeg writes the segment holding records first..first+n-1. Every
// record frame is 15 bytes (8-byte frame, 7-byte payload), so record k of
// a segment starts at byte segHeaderSize+15k.
func writeSeg(t *testing.T, fs *MemFS, first uint64, n int) {
	t.Helper()
	b := buildSegHeader(first)
	for lsn := first; lsn < first+uint64(n); lsn++ {
		p := damageRec(lsn)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = binary.LittleEndian.AppendUint32(b, Checksum(p))
		b = append(b, p...)
	}
	writeFile(t, fs, segName(first), b)
}

func writeCkpt(t *testing.T, fs *MemFS, lsn uint64) {
	t.Helper()
	writeFile(t, fs, ckptName(lsn), buildCheckpointFile(lsn, []byte(fmt.Sprintf("state-%d", lsn))))
}

// dirState maps every file of fs to its contents.
func dirState(t *testing.T, fs *MemFS) map[string]string {
	t.Helper()
	st := make(map[string]string)
	for _, name := range fs.DumpNames() {
		b, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		st[name] = string(b)
	}
	return st
}

// modified reports whether after differs from before, ignoring fresh: the
// empty tail segment a successful Open starts, when no file of that name
// existed before.
func modified(before, after map[string]string, fresh string) bool {
	if _, ok := before[fresh]; !ok {
		delete(after, fresh)
	}
	if len(before) != len(after) {
		return true
	}
	for name, b := range before {
		if a, ok := after[name]; !ok || a != b {
			return true
		}
	}
	return false
}

// outcome is what one reader makes of a damaged directory. On success it
// delivers records first..last (none when first > last) and LastLSN is
// last; on failure err is the errors.Is class and no records are checked.
type outcome struct {
	first, last uint64
	torn        bool
	err         error
	modified    bool
}

// TestDamageTable pins how the writer (Open) and the follower (OpenTailer)
// each treat every class of directory damage. Every directory starts as
// three segments, wal-1 [1..4], wal-5 [5..8] and wal-9 [9..12], with no
// checkpoint, and one damage is applied to it.
func TestDamageTable(t *testing.T) {
	const rec = 15 // bytes per record frame in writeSeg's segments
	seg := func(first uint64) string { return "wal/" + segName(first) }
	cases := []struct {
		name         string
		damage       func(t *testing.T, fs *MemFS)
		open, follow outcome
	}{
		{
			name:   "clean",
			damage: func(*testing.T, *MemFS) {},
			open:   outcome{first: 1, last: 12},
			follow: outcome{first: 1, last: 12},
		},
		{
			name: "torn final frame",
			damage: func(t *testing.T, fs *MemFS) {
				if err := fs.Truncate(seg(9), fs.Size(seg(9))-3); err != nil {
					t.Fatal(err)
				}
			},
			open:   outcome{first: 1, last: 11, torn: true, modified: true},
			follow: outcome{first: 1, last: 11, torn: true},
		},
		{
			name: "flipped bit mid-chain",
			damage: func(t *testing.T, fs *MemFS) {
				// A payload byte of record 6, the second of wal-5.
				if err := fs.FlipBit(seg(5), segHeaderSize+rec+recordFrameSize+2); err != nil {
					t.Fatal(err)
				}
			},
			open:   outcome{first: 1, last: 5, torn: true, modified: true},
			follow: outcome{err: ErrCorrupt},
		},
		{
			name: "damaged header on the final segment",
			damage: func(t *testing.T, fs *MemFS) {
				if err := fs.FlipBit(seg(9), 3); err != nil {
					t.Fatal(err)
				}
			},
			open:   outcome{first: 1, last: 8, torn: true, modified: true},
			follow: outcome{first: 1, last: 8, torn: true},
		},
		{
			name: "damaged header mid-chain",
			damage: func(t *testing.T, fs *MemFS) {
				if err := fs.FlipBit(seg(5), 3); err != nil {
					t.Fatal(err)
				}
			},
			open:   outcome{first: 1, last: 4, torn: true, modified: true},
			follow: outcome{err: ErrCorrupt},
		},
		{
			name: "missing segment",
			damage: func(t *testing.T, fs *MemFS) {
				if err := fs.Remove(seg(5)); err != nil {
					t.Fatal(err)
				}
			},
			open:   outcome{err: ErrGap},
			follow: outcome{err: ErrGap},
		},
		{
			name:   "overlapping segment",
			damage: func(t *testing.T, fs *MemFS) { writeSeg(t, fs, 7, 4) },
			open:   outcome{err: ErrCorrupt},
			follow: outcome{err: ErrCorrupt},
		},
		{
			name: "newest checkpoint corrupt",
			damage: func(t *testing.T, fs *MemFS) {
				writeCkpt(t, fs, 4)
				writeCkpt(t, fs, 8)
				if err := fs.FlipBit("wal/"+ckptName(8), 30); err != nil {
					t.Fatal(err)
				}
			},
			open:   outcome{first: 5, last: 12},
			follow: outcome{first: 5, last: 12},
		},
		{
			name: "all checkpoints corrupt with the log pruned",
			damage: func(t *testing.T, fs *MemFS) {
				for _, lsn := range []uint64{4, 8} {
					writeCkpt(t, fs, lsn)
					if err := fs.FlipBit("wal/"+ckptName(lsn), 30); err != nil {
						t.Fatal(err)
					}
				}
				if err := fs.Remove(seg(1)); err != nil {
					t.Fatal(err)
				}
			},
			open:   outcome{err: ErrNoCheckpoint},
			follow: outcome{err: ErrNoCheckpoint},
		},
		{
			name:   "stray tmp file",
			damage: func(t *testing.T, fs *MemFS) { writeFile(t, fs, ckptName(12)+tmpSuffix, []byte("half")) },
			open:   outcome{first: 1, last: 12, modified: true},
			follow: outcome{first: 1, last: 12},
		},
		{
			name:   "unrecognised file",
			damage: func(t *testing.T, fs *MemFS) { writeFile(t, fs, "notes.txt", []byte("hello")) },
			open:   outcome{first: 1, last: 12},
			follow: outcome{first: 1, last: 12},
		},
	}
	build := func(t *testing.T, damage func(*testing.T, *MemFS)) (*MemFS, map[string]string) {
		fs := NewMemFS()
		for _, first := range []uint64{1, 5, 9} {
			writeSeg(t, fs, first, 4)
		}
		damage(t, fs)
		return fs, dirState(t, fs)
	}
	check := func(t *testing.T, who string, rec *Recovered, err error, want outcome) {
		t.Helper()
		if want.err != nil || err != nil {
			if !errors.Is(err, want.err) {
				t.Fatalf("%s: err = %v, want %v", who, err, want.err)
			}
			return
		}
		if rec.LastLSN != want.last || rec.TornTail != want.torn {
			t.Fatalf("%s: LastLSN %d TornTail %v, want %d %v (warnings %q)",
				who, rec.LastLSN, rec.TornTail, want.last, want.torn, rec.Warnings)
		}
		if n := int(want.last+1) - int(want.first); len(rec.Records) != n {
			t.Fatalf("%s: %d records, want %d", who, len(rec.Records), n)
		}
		for i, r := range rec.Records {
			if w := damageRec(want.first + uint64(i)); string(r) != string(w) {
				t.Fatalf("%s: record %d = %q, want %q", who, i, r, w)
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, before := build(t, tc.damage)
			_, rec, err := OpenTailer(fs, "wal")
			check(t, "OpenTailer", rec, err, tc.follow)
			if modified(before, dirState(t, fs), "") {
				t.Fatal("OpenTailer modified the directory")
			}

			fs, before = build(t, tc.damage)
			l, rec, err := Open(fs, Options{Dir: "wal"})
			check(t, "Open", rec, err, tc.open)
			fresh := ""
			if err == nil {
				fresh = seg(rec.LastLSN + 1)
			}
			if got := modified(before, dirState(t, fs), fresh); got != tc.open.modified {
				t.Fatalf("Open modified the directory: %v, want %v", got, tc.open.modified)
			}
			if err != nil {
				return
			}
			// Open's repair is complete: a second Open finds the same
			// records and no damage.
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, rec, err = Open(fs, Options{Dir: "wal"})
			check(t, "second Open", rec, err, outcome{first: tc.open.first, last: tc.open.last})
			l.Close()
		})
	}
}
