package wal

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
)

// This file is the one reader of a WAL directory, shared by the writer's
// recovery (Open) and the follower (Tailer). Its three steps never modify
// the directory: list it, load the newest readable checkpoint, and walk the
// segments from an LSN up to the first damage. What to do about that damage
// is the caller's policy.

// listing is a WAL directory's contents, as listDir found them. List is
// sorted and the zero-padded hex names sort by LSN, so both LSN slices
// are ascending.
type listing struct {
	fs    FS
	dir   string
	ckpts []uint64 // checkpoint LSNs
	segs  []uint64 // segment first LSNs
	tmps  []string // checkpoints that crashed before their rename
}

// listDir lists dir. Unrecognised files are warned about in rec, unless
// rec is nil (a tailer's Poll re-lists without reporting).
func listDir(fsys FS, dir string, rec *Recovered) (*listing, error) {
	names, err := fsys.List(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list dir: %w", err)
	}
	ls := &listing{fs: fsys, dir: dir}
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			ls.tmps = append(ls.tmps, name)
		} else if lsn, ok := parseName(name, ckptPrefix, ckptSuffix); ok {
			ls.ckpts = append(ls.ckpts, lsn)
		} else if lsn, ok := parseName(name, segPrefix, segSuffix); ok {
			ls.segs = append(ls.segs, lsn)
		} else if rec != nil {
			rec.Warnings = append(rec.Warnings, fmt.Sprintf("ignoring unrecognised file %q", name))
		}
	}
	return ls, nil
}

func (ls *listing) path(name string) string { return filepath.Join(ls.dir, name) }

// loadCheckpoint fills rec with the newest checkpoint whose file verifies,
// falling back across older ones. If none is readable, the log must still
// reach back to LSN 1 to rebuild from scratch; otherwise the error wraps
// ErrNoCheckpoint.
func (ls *listing) loadCheckpoint(rec *Recovered) error {
	for i := len(ls.ckpts) - 1; i >= 0; i-- {
		lsn := ls.ckpts[i]
		data, err := ls.fs.ReadFile(ls.path(ckptName(lsn)))
		if err == nil {
			payload, plsn, perr := parseCheckpointFile(data)
			if perr == nil && plsn == lsn {
				rec.HaveCheckpoint = true
				rec.Checkpoint = payload
				rec.CheckpointLSN = lsn
				rec.CheckpointFallback = i != len(ls.ckpts)-1
				return nil
			}
			err = perr
			if perr == nil {
				err = fmt.Errorf("checkpoint LSN %d does not match file name", plsn)
			}
		}
		rec.Warnings = append(rec.Warnings,
			fmt.Sprintf("checkpoint %s unreadable (%v), falling back", ckptName(lsn), err))
	}
	if len(ls.ckpts) == 0 {
		return nil
	}
	if len(ls.segs) == 0 || ls.segs[0] != 1 {
		// Checkpoints existed (so old segments were pruned against them)
		// but none is readable and the log no longer reaches back to the
		// start of the stream: unrecoverable.
		first := uint64(0)
		if len(ls.segs) > 0 {
			first = ls.segs[0]
		}
		return fmt.Errorf("wal: all %d checkpoints unreadable and log starts at segment %016x: %w",
			len(ls.ckpts), first, ErrNoCheckpoint)
	}
	rec.Warnings = append(rec.Warnings,
		fmt.Sprintf("all %d checkpoints unreadable; replaying the full log", len(ls.ckpts)))
	return nil
}

// damage locates the first damaged header or record frame of a walk.
type damage struct {
	seg    int    // index into listing.segs
	name   string // segment base name
	off    int    // byte offset of the bad frame; 0 for a header
	lsn    uint64 // LSN the bad frame would have had
	header bool   // the segment header, not a frame, is damaged
}

// walk reads the segments from the one holding LSN next and returns the
// payload of every intact record with LSN >= next, in order, together with
// the LSN after the last one returned (next itself if none). It stops at
// the first short or CRC-mismatching frame, or header that does not verify,
// and reports it as dmg. Missing records (ErrGap), overlapping segments
// (ErrCorrupt) and read failures are errors; the last two are attributed
// to their segment with a SegmentError.
func (ls *listing) walk(next uint64) (records [][]byte, end uint64, dmg *damage, err error) {
	end = next
	// Start at the last segment whose first LSN is <= next — the one that
	// contains (or would contain) the first record wanted.
	start := -1
	for i, fl := range ls.segs {
		if fl <= next {
			start = i
		}
	}
	if start == -1 {
		if len(ls.segs) > 0 {
			// Every surviving segment starts after the records we need.
			return nil, 0, nil, fmt.Errorf("wal: need records from LSN %d but oldest segment starts at %d: %w",
				next, ls.segs[0], ErrGap)
		}
		return nil, end, nil, nil
	}

	expectFirst := uint64(0)
	for i := start; i < len(ls.segs); i++ {
		fl := ls.segs[i]
		name := segName(fl)
		data, rerr := ls.fs.ReadFile(ls.path(name))
		if rerr != nil {
			// The primary may prune a segment between List and ReadFile; the
			// next scan re-lists and classifies the directory's true state.
			return nil, 0, nil, &SegmentError{Name: name,
				Err: fmt.Errorf("wal: read segment %s: %w", name, rerr)}
		}
		if !parseSegHeader(data, fl) {
			return records, end, &damage{seg: i, name: name, lsn: fl, header: true}, nil
		}
		if expectFirst != 0 && fl != expectFirst {
			if fl > expectFirst {
				return nil, 0, nil, fmt.Errorf("wal: segment chain jumps from LSN %d to %d (%s): %w",
					expectFirst, fl, name, ErrGap)
			}
			return nil, 0, nil, &SegmentError{Name: name,
				Err: fmt.Errorf("wal: segment %s overlaps the previous segment (expected first LSN %d): %w",
					name, expectFirst, ErrCorrupt)}
		}
		lsn := fl
		for off := segHeaderSize; off < len(data); lsn++ {
			payload, ok := readFrame(data[off:])
			if !ok {
				return records, end, &damage{seg: i, name: name, off: off, lsn: lsn}, nil
			}
			if lsn >= next {
				records = append(records, payload)
				end = lsn + 1
			}
			off += recordFrameSize + len(payload)
		}
		expectFirst = lsn
	}
	return records, end, nil, nil
}

// readFrame decodes the record frame at the start of b. ok is false if the
// frame is short, claims more than maxRecordBytes, or fails its CRC.
func readFrame(b []byte) (payload []byte, ok bool) {
	if len(b) < recordFrameSize {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxRecordBytes || int64(n) > int64(len(b)-recordFrameSize) {
		return nil, false
	}
	payload = b[recordFrameSize : recordFrameSize+int(n)]
	return payload, Checksum(payload) == binary.LittleEndian.Uint32(b[4:])
}
