package wal

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzWALDir hands the directory reader arbitrary bytes as the segment
// wal-1 and, when ckpt is non-empty, as a checkpoint named by the LSN its
// header claims. Neither reader may panic; the follower (OpenTailer) and
// the writer (Open) must agree on the outcome and the records before the
// first damage; and the writer's repair must be complete, so a second Open
// finds the same records and no torn tail.
//
// The seed corpus in testdata/fuzz/FuzzWALDir holds a clean three-record
// segment, the same segment with a torn final frame, with a flipped payload
// bit, with a damaged header, and with a valid checkpoint at LSN 2, plus a
// corrupt checkpoint over an empty segment.
func FuzzWALDir(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg, ckpt []byte) {
		fs := NewMemFS()
		writeFile(t, fs, segName(1), seg)
		if len(ckpt) > 0 {
			var lsn uint64
			if len(ckpt) >= 20 {
				lsn = binary.LittleEndian.Uint64(ckpt[12:20])
			}
			writeFile(t, fs, ckptName(lsn), ckpt)
		}

		_, frec, ferr := OpenTailer(fs, "wal")
		l, orec, oerr := Open(fs, Options{Dir: "wal"})
		for _, class := range []error{nil, ErrCorrupt, ErrGap, ErrNoCheckpoint} {
			if errors.Is(ferr, class) != errors.Is(oerr, class) {
				t.Fatalf("OpenTailer err %v, Open err %v", ferr, oerr)
			}
		}
		if oerr != nil {
			return
		}
		sameRecovery(t, "OpenTailer", frec, orec, orec.TornTail)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l, rec, err := Open(fs, Options{Dir: "wal"})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		sameRecovery(t, "second Open", rec, orec, false)
		l.Close()
	})
}

// sameRecovery fails unless got recovered the same checkpoint and records
// as want, with TornTail equal to torn.
func sameRecovery(t *testing.T, who string, got, want *Recovered, torn bool) {
	t.Helper()
	if got.HaveCheckpoint != want.HaveCheckpoint || got.CheckpointLSN != want.CheckpointLSN ||
		got.LastLSN != want.LastLSN || got.TornTail != torn || len(got.Records) != len(want.Records) {
		t.Fatalf("%s recovered %+v, Open recovered %+v", who, got, want)
	}
	for i := range got.Records {
		if string(got.Records[i]) != string(want.Records[i]) {
			t.Fatalf("%s record %d = %q, Open's = %q", who, i, got.Records[i], want.Records[i])
		}
	}
}
